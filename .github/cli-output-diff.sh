#!/usr/bin/env bash
# Run a fixed list of qchan CLI commands on two source trees and print, as
# Markdown, which commands differ in stdout, stderr or exit code.
#
#   .github/cli-output-diff.sh BASE_TREE HEAD_TREE >> "$GITHUB_STEP_SUMMARY"
#
# Each tree is a checkout with the package under src/.  The script only
# reports: it exits 0 whatever it finds.  Keep every command small enough
# for both trees: older trees form the conjugation sums from dense n^4
# stacks (about 11 GB at n = 128), and older `report` builds its Kraus
# operators densely (about 410 MB peak at n = 64); `report --dim 128`
# assumes both trees have the sparse sums and the weight-only Kraus
# section (about 107 MB peak).
set -u

base=$1
head=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
unset QCHAN_TOL

printf '{"kind": "family", "family": "dcq", "p": 0.2, "dim": 3}\n' > "$work/channel.json"
printf '{"kind": "family", "family": "tcq", "p": 0.2, "dim": 3}\n' > "$work/tcq_plus.json"
printf '{"kind": "family", "family": "tcq", "p": -0.2, "dim": 3}\n' > "$work/tcq_minus.json"
printf '{"kind": "diagonal", "dim": 2, "t": [0.4, -0.4, 0.4]}\n' > "$work/diagonal.json"
printf '{"kind": "diagonal", "dim": 3, "t": [0.1, 0.2, 0.3, -0.15, 0.25, 0.05, 0.12, -0.08]}\n' \
    > "$work/unequal.json"
printf '{"kind": "diagonal", "dim": 3, "t": [-0.2, -0.2, -0.2, -0.2, -0.2, -0.2, 0.2, 0.2]}\n' \
    > "$work/dcq_diagonal.json"
printf '{"rows": 3, "cols": 3, "data": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}\n' \
    > "$work/state.json"
printf '{"rows": 3, "cols": 3, "data": [[1, 0], [-0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0], [0, 0], [-0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0], [0, 0]]}\n' \
    > "$work/signed_zero_state.json"
printf '{"kind": "family", "family": ' > "$work/malformed.json"
# Overflowing Frobenius norms: squares of 1e155 Choi data and outputs, and of 1e200 state entries.
printf '{"kind": "diagonal", "dim": 3, "t": [1e155, 1e155, 1e155, 1e155, 1e155, 1e155, 0, 0]}\n' \
    > "$work/huge_multipliers.json"
printf '{"kind": "family", "family": "dep", "p": 0.5, "dim": 2}\n' > "$work/dep_qubit.json"
printf '{"rows": 2, "cols": 2, "data": [[0.5, 0], [1e200, 0], [1e200, 0], [0.5, 0]]}\n' \
    > "$work/huge_state.json"
printf '{"kind": "diagonal", "dim": 1, "t": []}\n' > "$work/dim_one.json"

commands=(
    "range --family dcq --dim 3"
    "basis --dim 3 --json"
    "basis --dim 12 --json"
    "channel apply --channel $work/channel.json --state $work/state.json"
    "channel apply --channel $work/tcq_plus.json --state $work/state.json"
    "channel apply --channel $work/tcq_minus.json --state $work/state.json"
    "channel apply --channel $work/unequal.json --state $work/signed_zero_state.json"
    "verify cptp --family tcq --dim 3 --p 0.3"
    "verify cptp --channel $work/diagonal.json"
    "verify constant-norm --family dep --dim 4 --p 0.5 --samples 500 --seed 7"
    "verify constant-norm --family tcq --dim 20 --p 0.01 --samples 500 --seed 3"
    "verify constant-norm --family trd --dim 70 --p 0.0001 --samples 30 --seed 1"
    "verify constant-norm --channel $work/unequal.json"
    "verify constant-norm --channel $work/diagonal.json"
    "verify constant-norm --family dcq --dim 40 --p 0.0001 --samples 300 --seed 2"
    "verify constant-norm --channel $work/dcq_diagonal.json"
    "identities --dim 5 --trials 40 --seed 1"
    "identities --dim 16 --trials 10 --seed 2"
    "identities --dim 48 --trials 3"
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
    "report --dim 10 --seed 3"
    "report --dim 16 --seed 5"
    "report --dim 24 --seed 1"
    "report --dim 64 --seed 3"
    "report --dim 128 --seed 1"
    "report --dim 4 --tol 1e-14"
    "witness --pair dep,trd --dim 3"
    "certify --pair dep,dcq --dim 2"
    "range --family xyz --dim 3"
    "basis --dim 200"
    "detcheck --dim 3 --grid 1"
    "identities --dim 3 --trials 0"
    "qubit-equiv --p 0.5 --trials 0"
    "report --dim 3 --samples -1"
    "verify constant-norm --family dep --dim 3 --p 0.1 --samples -1"
    "channel apply --channel $work/malformed.json --state $work/state.json"
    "verify cptp --channel $work/huge_multipliers.json"
    "verify constant-norm --channel $work/huge_multipliers.json --samples 0"
    "verify constant-norm --channel $work/huge_multipliers.json --samples 20"
    "channel apply --channel $work/dep_qubit.json --state $work/huge_state.json"
    "verify cptp --family dep --dim 1 --p 0.1"
    "verify cptp --channel $work/dim_one.json"
    "identities --dim 3 --tol 0"
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
