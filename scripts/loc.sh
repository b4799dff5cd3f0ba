#!/bin/sh
# Non-test Go lines per package — the "non-test lines X -> Y" figure the
# simplicity PRs quote in CHANGES.md. bench/ is its own module and not counted.
# Every row but the scenario + live sum adds up to the total.
cd "$(dirname "$0")/.." || exit 1
loc() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l; }
for d in internal/* cmd/*; do
	printf '%6d  %s\n' "$(loc "$d")" "$d"
done
printf '%6d  %s\n' "$(loc . -maxdepth 1)" "(root package)"
printf '%6d  %s\n' "$(loc examples)" "examples"
printf '%6d  %s\n' "$(loc internal/scenario internal/live)" "internal/scenario + internal/live"
printf '%6d  %s\n' "$(loc .)" "total"
