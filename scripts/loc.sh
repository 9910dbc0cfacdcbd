#!/bin/sh
# Line counts of the program's non-test Go code, one row per package
# directory (the files directly in it, not its subdirectories): raw
# lines, and code lines — raw minus blank lines and lines that are only
# comment. benchmark/ is the ruler, not the program, and is left out.
# Usage: scripts/loc.sh [dir ...]   (no arguments: every package)
set -eu
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' |
		sed 's|^\./||; s|/*[^/]*$||; s|^$|.|' | sort -u)
fi

for dir in "$@"; do
	find "${dir%/}" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort | xargs awk -v dir="${dir%/}" '
		# A line is code unless it is blank, starts with //, or lies inside
		# a /* */ block that opens at the start of a line.
		{ raw++ }
		inblock { if (index($0, "*/")) inblock = 0; next }
		/^[ \t]*$/ || /^[ \t]*\/\// { next }
		/^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
		{ code++ }
		END { print dir, raw + 0, code + 0 }'
done | awk '
	BEGIN { printf "%-28s %7s %7s\n", "package", "raw", "code" }
	{ printf "%-28s %7d %7d\n", $1, $2, $3; raw += $2; code += $3 }
	END { printf "%-28s %7d %7d\n", "total", raw, code }'
