#!/bin/sh
# check_ci_sync.sh — fail when the Makefile and the CI workflow drift.
#
# Contract: every workflow step that exercises the module runs
# `make <target>`, and the Makefile's `ci` aggregate target depends on
# exactly the union of those targets, so `make ci` is a faithful local
# mirror of CI. This script greps both files and fails on any
# one-sided target. It is wired into `make lint`.
set -eu
cd "$(dirname "$0")/.."

workflow=.github/workflows/ci.yml
makefile=Makefile

# *-install targets are network-only setup steps (tool installs) that
# the offline `ci` aggregate deliberately omits; everything else must
# mirror exactly.
wf_targets=$(grep -oE 'make [a-z][a-z0-9-]*' "$workflow" | awk '{print $2}' | grep -v -- '-install$' | sort -u)
ci_deps=$(awk -F': *' '$1 == "ci" {print $2}' "$makefile" | tr ' ' '\n' | sed '/^$/d' | sort -u)

drift=0
for t in $wf_targets; do
	if ! printf '%s\n' "$ci_deps" | grep -qx "$t"; then
		echo "ci-sync: workflow runs 'make $t' but the Makefile 'ci' target does not depend on it" >&2
		drift=1
	fi
done
for t in $ci_deps; do
	if ! printf '%s\n' "$wf_targets" | grep -qx "$t"; then
		echo "ci-sync: Makefile 'ci' depends on '$t' but no workflow step runs 'make $t'" >&2
		drift=1
	fi
done
if [ "$drift" -ne 0 ]; then
	echo "ci-sync: $makefile and $workflow have drifted; update both together" >&2
	exit 1
fi
echo "ci-sync: ok ($(printf '%s\n' "$wf_targets" | wc -l | tr -d ' ') targets mirrored)"
