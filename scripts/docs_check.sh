#!/bin/sh
# docs_check.sh — documentation hygiene gate (make docs-check).
#
# Fails on:
#   1. gofmt or go vet regressions (the doc-adjacent baseline),
#   2. exported top-level Go identifiers with no doc comment,
#   3. relative markdown links that do not resolve to a file in the repo.
#
# Pure POSIX sh + awk so it runs identically locally and in CI.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- 1. gofmt + vet -------------------------------------------------------
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "docs-check: gofmt needed on:"
	echo "$out"
	fail=1
fi
go vet ./... || fail=1

# --- 2. undocumented exported identifiers ---------------------------------
# Every exported top-level func/method/type/const/var (and exported members
# of const/var groups) must carry a doc comment. go vet does not enforce
# comment conventions, so this is the repo's own gate. Both file lists skip
# paths that are listed but gone from the working tree (a tracked file
# deleted and not yet staged): the gate checks the tree as it stands.
audit=$(git ls-files --cached --others --exclude-standard '*.go' | grep -v _test.go | while read -r f; do
	[ -e "$f" ] || continue
	awk -v FILE="$f" '
		/^(func|type|const|var) [A-Z]/ || /^func \([A-Za-z0-9_]+ \*?[A-Z][A-Za-z0-9_]*\) [A-Z]/ {
			if (prev !~ /^\/\//) print FILE ":" FNR ": " $0
		}
		ingroup && /^	[A-Z][A-Za-z0-9_]*( |,)/ {
			if (prev !~ /^	*\/\// && prev !~ /^(const|var) \(/) print FILE ":" FNR ": " $0
		}
		/^(const|var) \(/ { ingroup = 1 }
		/^\)/ { ingroup = 0 }
		{ prev = $0 }
	' "$f"
done)
if [ -n "$audit" ]; then
	echo "docs-check: exported identifiers without doc comments:"
	echo "$audit"
	fail=1
fi

# --- 3. markdown link resolution ------------------------------------------
# Relative links in tracked markdown must point at files that exist.
# Skipped: absolute URLs (scheme:), pure anchors (#...), and ../ links that
# deliberately point outside the repo (the README's CI-badge idiom).
links=$(git ls-files --cached --others --exclude-standard '*.md' | while read -r f; do
	[ -e "$f" ] || continue
	awk -v FILE="$f" '
	{
		line = $0
		while (match(line, /\]\(([^)]+)\)/)) {
			target = substr(line, RSTART + 2, RLENGTH - 3)
			line = substr(line, RSTART + RLENGTH)
			if (target ~ /^[a-z+]+:/) continue  # http:, https:, mailto:
			if (target ~ /^#/) continue          # same-file anchor
			if (target ~ /^\.\.\//) continue     # outside the repo (badge idiom)
			sub(/#.*$/, "", target)              # strip anchors
			if (target == "") continue
			print FILE "\t" target
		}
	}' "$f"
done)
echo "$links" | while IFS="$(printf '\t')" read -r src target; do
	[ -z "$target" ] && continue
	base=$(dirname "$src")
	if [ ! -e "$base/$target" ] && [ ! -e "$target" ]; then
		echo "docs-check: broken link in $src: ($target)"
		echo brokenlink >> /tmp/docs_check_broken.$$
	fi
done
if [ -f /tmp/docs_check_broken.$$ ]; then
	rm -f /tmp/docs_check_broken.$$
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED"
	exit 1
fi
echo "docs-check: OK (gofmt, vet, godoc conventions, markdown links)"
