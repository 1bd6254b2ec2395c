package twopkg

import (
	"example.com/twopkg/internal/counters"
	ctr "example.com/twopkg/internal/counters"
	"time"
)

type (
	Stats counters.Stats // a struct of this module: its fields are listed
	Alias = ctr.Stats    // the same, aliased under an import name of its own
	Count counters.Count // not a struct: the type line only
	Wait  time.Duration  // another module's type: the type line only
)
