module passjoin/bench

go 1.24

require passjoin v0.0.0

replace passjoin => ../
