#!/usr/bin/env bash
# Run a fixed list of qchan CLI commands on two source trees and print, as
# Markdown, which commands differ in stdout, stderr or exit code.
#
#   .github/cli-output-diff.sh BASE_TREE HEAD_TREE >> "$GITHUB_STEP_SUMMARY"
#
# Each tree is a checkout with the package under src/.  The script only
# reports: it exits 0 whatever it finds.
set -u

base=$1
head=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
unset QCHAN_TOL

printf '{"kind": "family", "family": "dcq", "p": 0.2, "dim": 3}\n' > "$work/channel.json"
printf '{"kind": "diagonal", "dim": 2, "t": [0.4, -0.4, 0.4]}\n' > "$work/diagonal.json"
printf '{"rows": 3, "cols": 3, "data": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}\n' \
    > "$work/state.json"

commands=(
    "range --family dcq --dim 3"
    "basis --dim 3 --json"
    "channel apply --channel $work/channel.json --state $work/state.json"
    "verify cptp --family tcq --dim 3 --p 0.3"
    "verify cptp --channel $work/diagonal.json"
    "verify constant-norm --family dep --dim 4 --p 0.5 --samples 500 --seed 7"
    "identities --dim 5 --trials 40 --seed 1"
    "detcheck --dim 4 --grid 21"
    "witness --pair dep,dcq --dim 3 --p 0.2"
    "witness --pair trd,tcq --dim 5"
    "certify --pair dep,trd --dim 4"
    "certify --pair dcq,tcq --dim 5"
    "certify --pair tcq,dep --dim 3"
    "qubit-equiv --p 0.35 --trials 200 --seed 0"
    "report --dim 2"
    "report --dim 3 --seed 0"
    "report --dim 6 --seed 7"
    "report --dim 4 --tol 1e-14"
    "witness --pair dep,trd --dim 3"
    "certify --pair dep,dcq --dim 2"
    "range --family xyz --dim 3"
    "detcheck --dim 3 --grid 1"
)

run() {  # run LABEL TREE INDEX ARGS...: record stdout, stderr and exit code
    local label=$1 tree=$2 index=$3
    shift 3
    PYTHONPATH="$tree/src" python -m qchan "$@" > "$work/$index.$label.out" 2> "$work/$index.$label.err"
    echo $? > "$work/$index.$label.code"
}

echo "### CLI output against the base commit"
echo
differ=0
for index in "${!commands[@]}"; do
    read -r -a argv <<< "${commands[$index]}"
    run base "$base" "$index" "${argv[@]}"
    run head "$head" "$index" "${argv[@]}"
    parts=()
    for stream in out err code; do
        cmp -s "$work/$index.base.$stream" "$work/$index.head.$stream" || parts+=("$stream")
    done
    if ((${#parts[@]})); then
        differ=$((differ + 1))
        shown=${commands[$index]//$work\//}
        echo "- \`qchan $shown\` differs in: ${parts[*]}"
    fi
done
echo
echo "$differ of ${#commands[@]} commands differ (stdout, stderr or exit code)."
exit 0
