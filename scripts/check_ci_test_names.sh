#!/bin/bash
# check_ci_test_names.sh — fail if a `go test -run` pattern in the CI
# workflow names a test that does not exist.
#
# `go test -run 'TestA|TestB' ./pkg/` passes silently once TestB is
# deleted or renamed: the pattern just selects fewer tests. For every
# `go test … -run PATTERN PKGS` line of .github/workflows/ci.yml, this
# gate lists the tests of PKGS (`go test -list .`) and requires each
# `|`-alternative of PATTERN to select one of them. An alternative
# spelled as a whole name (Test…, Fuzz…, Example…, Benchmark…) must be
# listed exactly; any other (a fragment such as Spill or Dist) must
# match some listed name, as `go test -run` matches it. The pattern
# '^$', which selects nothing on purpose, is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."
ci=.github/workflows/ci.yml

fail=0
while IFS= read -r line; do
    pattern=$(printf '%s\n' "$line" | sed -E "s/.*-run +('([^']*)'|([^ ]+)).*/\2\3/")
    [ "$pattern" = '^$' ] && continue
    pkgs=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/|$)' || true)
    if [ -z "$pkgs" ]; then
        echo "check_ci_test_names: no packages in: $line" >&2
        fail=1
        continue
    fi
    # shellcheck disable=SC2086 # pkgs is a word list on purpose
    names=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
        if [[ $alt =~ ^(Test|Fuzz|Example|Benchmark)[A-Z0-9_][A-Za-z0-9_]*$ ]]; then
            found=$(printf '%s\n' "$names" | grep -cx -- "$alt" || true)
        else
            found=$(printf '%s\n' "$names" | grep -cE -- "$alt" || true)
        fi
        if [ "$found" -eq 0 ]; then
            echo "check_ci_test_names: -run '$pattern' names '$alt', which no test in $(echo $pkgs) matches" >&2
            fail=1
        fi
    done
done < <(grep -vE '^[[:space:]]*#' "$ci" | grep -E 'go test .*-run ')

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_ci_test_names: every -run name in $ci selects a test"
