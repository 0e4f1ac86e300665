#!/bin/sh
# check_bce.sh — fail if the compiler emits per-coordinate bounds checks
# inside the internal/vector scan loops, or any indexing bounds check
# inside the nearest-pivot assignment scan of internal/voronoi.
#
# The fused kernels rely on the paired re-slice idiom
# (`row := coords[i*dim : i*dim+len(q)]; qr := q[:len(row)]`, as in
# sqDistL2) to let the compiler prove every `row[j]`/`qr[j]` access in
# bounds; a refactor that breaks the proof silently reintroduces a
# branch per coordinate. `-d=ssa/check_bce` prints one diagnostic per
# remaining bounds check; this gate maps each diagnostic line to its
# enclosing function and fails on any IsInBounds inside a scan-path
# function. Slice-expression checks (IsSliceInBounds) are the idiom's
# own once-per-row cost and stay allowed; so do checks in constructors
# and helpers, which run once per block, not per coordinate.
#
# voronoi.AssignEvaluated runs once per object of R ∪ S under job 1, the
# index build and the query walk; its distances go through sqDistL2, and
# its own loop over candidate pivots (list entry, bitmap word, pivot row)
# is written to need no indexing check either.
set -eu
cd "$(dirname "$0")/.."

# Scan-path functions: one indexing bounds check here costs a branch per
# coordinate of every distance computation (per candidate pivot, in
# AssignEvaluated).
hot='scanScalar|scanF64|scanQuant|sqDistL2|rangeGuts|AssignEvaluated'

diags=$(go build -gcflags='knnjoin/internal/vector=-d=ssa/check_bce' -gcflags='knnjoin/internal/voronoi=-d=ssa/check_bce' \
    ./internal/vector/ ./internal/voronoi/ 2>&1 || true)
if ! printf '%s\n' "$diags" | grep -q "Found Is"; then
    echo "check_bce: no diagnostics emitted — compiler flag broken?" >&2
    exit 1
fi

bad=$(printf '%s\n' "$diags" | grep "Found IsInBounds" | while IFS=: read -r file line rest; do
    [ -f "$file" ] || continue
    fn=$(awk -v n="$line" 'NR<=n && /^func /{f=$0} END{print f}' "$file")
    if printf '%s' "$fn" | grep -qE "($hot)\("; then
        echo "$file:$line: IsInBounds in ${fn%%\{*}"
    fi
done)

if [ -n "$bad" ]; then
    echo "bounds checks found in the internal/vector and internal/voronoi scan loops:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
echo "check_bce: internal/vector and internal/voronoi scan loops are bounds-check free"
