#!/bin/sh
# Dead-reference check over the repository's markdown. Two rules:
#
#  1. Every relative link in a tracked *.md file must point at a file or
#     directory that exists. Scheme-qualified links (http:, https:, mailto:)
#     and pure #anchors are skipped; #fragments on relative links are
#     stripped before the check.
#  2. Every backticked repository path starting with cmd/, internal/,
#     scripts/, docs/, benchmark/ or examples/ must exist. A trailing /...,
#     a :line suffix and a .Symbol after a package directory are stripped
#     first (`internal/sched/...`, `internal/core/engine.go:42` and
#     `internal/sched.Scheduler` all check a path). Placeholders containing
#     <, { or * are skipped. This rule covers only the documents that
#     describe the code as it stands: README.md, ARCHITECTURE.md,
#     EXPERIMENTS.md and every *.md below the root. The other root-level
#     files hold history, plans and outside references, and name past,
#     planned or foreign files on purpose.
#
# Exits 1 listing every dead reference found. Run from the repository root
# (make doc does).
set -f
fail=0
for f in $(git ls-files '*.md'); do
	dir=$(dirname "$f")
	for target in $(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//' -e 's/#.*$//'); do
		case $target in
		'' | http://* | https://* | mailto:*) continue ;;
		esac
		if [ ! -e "$dir/$target" ]; then
			echo "$f: dead link -> $target" >&2
			fail=1
		fi
	done
	case $f in
	README.md | ARCHITECTURE.md | EXPERIMENTS.md | */*) ;;
	*) continue ;;
	esac
	for path in $(grep -oE '`(cmd|internal|scripts|docs|benchmark|examples)/[^` ]*' "$f" |
		sed -e 's/^`//' -e 's|/\.\.\.$||' -e 's|:[^/]*$||'); do
		case $path in
		*'<'* | *'{'* | *'*'*) continue ;;
		esac
		pkg=$(echo "$path" | sed -E 's#^(.*/[^/.]+)\.[^/]*$#\1#')
		if [ ! -e "$path" ] && [ ! -d "$pkg" ]; then
			echo "$f: missing path -> $path" >&2
			fail=1
		fi
	done
done
if [ $fail -eq 0 ]; then
	echo "check-md-links: all relative markdown links and backticked paths resolve"
fi
exit $fail
