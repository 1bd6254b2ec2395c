#!/usr/bin/env bash
# Prints the repository's size metric: the number of non-test Go lines
# outside bench/, counted over the files git tracks.
# Used by CI; runnable locally: ./scripts/loc.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | xargs cat | wc -l
