#!/usr/bin/env bash
# Documentation drift guard: every `--flag` mentioned in docs/*.md
# must appear in the --help output of a shipped binary. Every tool's
# --help is generated from its flag table (src/common/cli.hh), so a
# flag that was renamed (or removed) without a doc sweep, or
# documented before it exists, fails here with the doc lines that
# reference it.
#
# Usage: scripts/check_doc_flags.sh [BUILD_DIR]   (default: build)
# Run from the source root (CTest's doc_flags test does).

set -u
build="${1:-build}"

tools=()
for tool in c3d-sweep c3d-trace c3d-paper bench-report \
            example_design_shootout; do
    if [ ! -x "$build/$tool" ]; then
        echo "check_doc_flags: missing $build/$tool (build first)" >&2
        exit 2
    fi
    tools+=("$build/$tool")
done

help=""
for tool in "${tools[@]}"; do
    if ! out=$("$tool" --help 2>&1); then
        echo "check_doc_flags: '$tool --help' failed" >&2
        exit 2
    fi
    help="$help$out
"
done

status=0
for flag in $(grep -rhoE -- '--[a-z][a-z0-9-]+' docs/*.md | sort -u); do
    if ! printf '%s\n' "$help" | grep -qF -- "$flag"; then
        echo "doc drift: $flag is documented but absent from every" \
             "tool's --help" >&2
        grep -rn -- "$flag" docs/*.md | head -3 >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "check_doc_flags: all documented flags exist"
fi
exit $status
