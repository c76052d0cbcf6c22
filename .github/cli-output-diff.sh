#!/usr/bin/env bash
# Run a fixed list of qchan CLI commands on two source trees, print as
# Markdown which commands differ in stdout, stderr or exit code, and exit 1
# if one differs that HEAD_TREE does not declare, or if a declared line
# names no command of the list or a command whose output did not change.
#
#   bash .github/cli-output-diff.sh BASE_TREE HEAD_TREE >> "$GITHUB_STEP_SUMMARY"
#
# Each tree is a checkout with the package under src/.  HEAD_TREE's
# .github/declared-output-changes.txt lists the commands whose output the
# change moves on purpose, one per line, as this script prints them (file
# arguments by their names under the work directory, without "qchan").
# Each change rewrites that file with exactly the commands it moves, and
# CHANGES.md says why each listed command moves; an empty or missing file
# means no command may differ.  A stale or mistyped line fails the run and
# is printed.
#
# What the rows are for:
# - each command on small inputs, on family and diagonal channel files and
#   on signed-zero states;
# - the sampled and summed checks at larger n, up to `identities --dim 1000`
#   and `report --dim 128` (near 600 MB and 100 MB), and the sample test at
#   n = 300;
# - refusals that exit 2 at once: malformed flags and file fields, values
#   past the 1e100 magnitude bound, and sizes at or past each size guard
#   (`--dim 4635`, `--samples 89478463`, ...);
# - values at the bounds that run (`--p 1e100`; `cancelled.json`, whose
#   pair sum cancels), `--output` to a file and to a missing directory, and
#   the help texts;
# - the sample test's signed t_x^2 - t_y^2 forms on an n = 64 diagonal
#   channel (`unequal64.json`);
# - the CPTP verdict on an n = 4 diagonal channel whose z multipliers are
#   0.0, -0.0 and 1e100 (`signed_zero_z.json`), so signed zeros and the
#   magnitude bound pass through the suffix sums of the classical Choi data;
# - the CP path at size: `verify cptp` at n = 300 failing in a pair block
#   (trd) and in the classical block (dcq), and `detcheck --dim 200`;
# - a loose --tol: two members far outside the range that pass the CP
#   bound (dep at p = 1e100 and at p = 10).
# - the closed-form CP verdict of sector-constant channels: exact ties
#   (dep above p = 1, where the classical and the pair blocks share the
#   smallest eigenvalue, and trd and tcq above p_max at n = 64, where every
#   pair block does), dep below p_min at n = 64, dcq at n = 4000, and a
#   sector-constant diagonal file that is no family (`sector.json`), beside
#   the same file with one entry an ulp off (`sector_ulp.json`), which takes
#   the Choi blocks;
# - the sample test's mean deviation on equal norms (dep at p = 0), which
#   must read 0 with the spread, on the witness states alone and with Haar
#   samples, whose identity term is the exact 1/n of a unit trace;
# - a failing identities report (`--tol 1e-18`, failed by rounding alone),
#   whose witness names the sum and the input of its largest deviation;
# - the spectrum witnesses' exact spectra in their sorted order, at a
#   negative p and at a CPTP range endpoint;
# - argv shapes that only argparse parses, so their bytes stay argparse's:
#   an abbreviated flag, a repeated flag (the last one wins), `--flag=value`,
#   `--output` after the command, an unknown command and a missing value.
set -u

base=$1
head=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# One BLAS thread: at large n some products round differently on more threads.
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
# Trees before the variable's removal read a tolerance from it.
unset QCHAN_TOL
declared="$head/.github/declared-output-changes.txt"

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
# Multipliers past the magnitude bound, and a state whose 1e200 entries have overflowing squares.
printf '{"kind": "diagonal", "dim": 3, "t": [1e155, 1e155, 1e155, 1e155, 1e155, 1e155, 0, 0]}\n' \
    > "$work/huge_multipliers.json"
printf '{"kind": "family", "family": "dep", "p": 0.5, "dim": 2}\n' > "$work/dep_qubit.json"
printf '{"rows": 2, "cols": 2, "data": [[0.5, 0], [1e200, 0], [1e200, 0], [0.5, 0]]}\n' \
    > "$work/huge_state.json"
printf '{"kind": "diagonal", "dim": 1, "t": []}\n' > "$work/dim_one.json"
printf '{"kind": "family", "family": "dcq", "p": 1e308, "dim": 3}\n' > "$work/dcq_max.json"
printf '{"kind": "family", "family": "dcq", "p": 1.7e308, "dim": 3}\n' > "$work/dcq_first_sum.json"
printf '{"kind": "diagonal", "dim": 2, "t": [0, 0, 3000618250.613841]}\n' > "$work/cancelled.json"
printf '{"kind": "family", "family": "dep", "p": 1e155, "dim": 3}\n' > "$work/huge_p.json"
printf '{"kind": "diagonal", "dim": 4, "t": [0.1, -0.2, 0.3, 0.05, -0.15, 0.25, 0.2, 0.1, -0.3, 0.15, 0.05, -0.25, 0.0, -0.0, 1e100]}\n' \
    > "$work/signed_zero_z.json"
printf '{"kind": "diagonal", "dim": 4, "t": [0.3, 0.3, 0.3, 0.3, 0.3, 0.3, -0.6, -0.6, -0.6, -0.6, -0.6, -0.6, 0.2, 0.2, 0.2]}\n' \
    > "$work/sector.json"
printf '{"kind": "diagonal", "dim": 4, "t": [0.3, 0.3, 0.3, 0.30000000000000004, 0.3, 0.3, -0.6, -0.6, -0.6, -0.6, -0.6, -0.6, 0.2, 0.2, 0.2]}\n' \
    > "$work/sector_ulp.json"
# n = 64 with t_x and t_y moduli that differ pair by pair: the sample test's signed Delta forms at size.
python -c '
import json
n, m = 64, 64 * 63 // 2
t = [((7 * i) % 101 - 50) / 200 for i in range(m)] + [((11 * i) % 89 - 44) / 150 for i in range(m)]
print(json.dumps({"kind": "diagonal", "dim": n, "t": t + [((5 * i) % 31 - 15) / 100 for i in range(n - 1)]}))
' > "$work/unequal64.json"
# Family files with one refused field, and one with two (the first in field order is named).
printf '{"kind": "family", "family": "xyz", "p": 0.1, "dim": 3}\n' > "$work/bad_family.json"
printf '{"kind": "family", "family": "dep", "p": 0.1, "dim": 3.0}\n' > "$work/float_dim.json"
printf '{"kind": "family", "family": "dep", "p": true, "dim": 3}\n' > "$work/bool_p.json"
printf '{"kind": "family", "family": "dep", "p": 1e101, "dim": 3}\n' > "$work/past_bound_p.json"
printf '{"kind": "family", "family": "dep", "p": 1e101, "dim": 1}\n' > "$work/two_bad_fields.json"

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
    "verify constant-norm --family dep --dim 3 --p 1e155 --samples 5"
    "channel apply --channel $work/dep_qubit.json --state $work/huge_state.json"
    "verify cptp --family dep --dim 1 --p 0.1"
    "verify cptp --channel $work/dim_one.json"
    "identities --dim 3 --tol 0"
    "certify --pair dep,trd --dim 3 --p 0.1"
    "verify cptp --channel $work/channel.json --family dep --dim 5 --p 0.9"
    "qubit-equiv --p 0.3 --trials 5000 --seed 11"
    "qubit-equiv --p 0.6 --trials 7 --seed 0"
    "report --dim 2 --seed 4"
    "witness --pair trd,tcq --dim 5 --p 0.05"
    "identities --dim 256 --trials 5 --seed 4"
    "identities --dim 2 --trials 3 --seed 9"
    "report --dim 3 --tol 1e-3"
    "report --dim 2 --samples 10 --tol 1e-30"
    "basis --dim 63 --json"
    "identities --dim 1000 --trials 1 --seed 0"
    "report --dim 5 --samples 20000 --seed 3"
    "verify constant-norm --family tcq --dim 64 --p 0.001 --samples 2000 --seed 5"
    "verify constant-norm --family tcq --dim 300 --p 0.001 --samples 200 --seed 1"
    "verify cptp --family dep --dim 4635 --p 0.1"
    "detcheck --dim 4635"
    "identities --dim 2770"
    "witness --pair dep,dcq --dim 1752"
    "report --dim 676"
    "verify constant-norm --family dep --dim 3 --p 0.1 --samples 89478463"
    "verify constant-norm --family trd --dim 5983 --p 0 --samples 0"
    "report --dim 3 --samples 44738362"
    "verify constant-norm --channel $work/huge_multipliers.json --samples 20000"
    "-h"
    "verify cptp -h"
    "channel apply -h"
    "report -h"
    "verify cptp --family dep --dim 100 --p -1e-05"
    "certify --pair dep,dcq --dim 5 --p -1e-3"
    "verify cptp --family dep --dim 3 --p 0.1 --tol -1e-3"
    "verify cptp --family dep --dim 3 --p 1e308"
    "verify cptp --family dep --dim 3 --p 8e307"
    "verify constant-norm --family dep --dim 3 --p 1e308 --samples 5"
    "verify cptp --family dep --dim 3 --p 1e300"
    "verify constant-norm --family dep --dim 3 --p 1e300 --samples 5"
    "--output $work/report.json report --dim 3 --seed 0"
    "--output $work/no_such_dir/range.json range --family dep --dim 3"
    "channel apply --channel $work/dcq_max.json --state $work/state.json"
    "verify constant-norm --family tcq --dim 3 --p 9e307 --samples 5"
    "verify constant-norm --family dcq --dim 3 --p 1.7e308 --samples 5"
    "channel apply --channel $work/dcq_first_sum.json --state $work/state.json"
    "verify constant-norm --channel $work/cancelled.json --samples 3"
    "verify constant-norm --channel $work/unequal64.json --samples 200 --seed 4"
    "verify constant-norm --family dcq --dim 3 --p 1e100 --samples 5"
    "verify constant-norm --family dep --dim 5 --p 0 --samples 0"
    "verify cptp --channel $work/huge_p.json"
    "report --dim 3 --seed -1"
    "verify constant-norm --family dep --dim 3 --p 0.1 --seed -1"
    "verify cptp --family dep --dim 3 --p inf"
    "witness --pair dep,dcq --dim 3 --p inf"
    "qubit-equiv --p 1e101"
    "verify cptp --channel $work/bad_family.json"
    "verify cptp --channel $work/float_dim.json"
    "verify cptp --channel $work/bool_p.json"
    "verify cptp --channel $work/past_bound_p.json"
    "verify cptp --channel $work/two_bad_fields.json"
    "verify cptp --channel $work/signed_zero_z.json"
    "verify cptp --family trd --dim 300 --p 0.004"
    "verify cptp --family dcq --dim 300 --p 0.0001"
    "detcheck --dim 200"
    "verify cptp --family dep --dim 2 --p 1e100 --tol 0.4"
    "verify cptp --family dep --dim 2 --p 10 --tol 0.3"
    "verify constant-norm --family dep --dim 3 --p 0 --samples 5"
    "identities --dim 3 --tol 1e-18"
    "report --dim 3 --sam 5"
    "range --family dep --family trd --dim 3"
    "certify --pair=dep,trd --dim 4"
    "report --dim 3 --output x.json"
    "frobnicate --dim 3"
    "verify cptp --family dep --dim"
    "witness --pair trd,dcq --dim 7 --p -0.07"
    "certify --pair dep,tcq --dim 4 --p 0.2"
    "verify cptp --family dep --dim 5 --p 1.5"
    "verify cptp --family trd --dim 64 --p 0.05"
    "verify cptp --family tcq --dim 64 --p 0.05"
    "verify cptp --family dep --dim 64 --p -0.001"
    "verify cptp --channel $work/sector.json"
    "verify cptp --channel $work/sector_ulp.json"
    "verify cptp --family dcq --dim 4000 --p 0.0001"
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
undeclared=0
: > "$work/listed"
: > "$work/moved"
for index in "${!commands[@]}"; do
    read -r -a argv <<< "${commands[$index]}"
    run base "$base" "$index" "${argv[@]}"
    run head "$head" "$index" "${argv[@]}"
    shown=${commands[$index]//$work\//}
    echo "$shown" >> "$work/listed"
    parts=()
    for stream in out err code; do
        cmp -s "$work/$index.base.$stream" "$work/$index.head.$stream" || parts+=("$stream")
    done
    if ((${#parts[@]})); then
        differ=$((differ + 1))
        echo "$shown" >> "$work/moved"
        if [[ -f "$declared" ]] && grep -qxF -- "$shown" "$declared"; then
            echo "- \`qchan $shown\` differs in: ${parts[*]} (declared)"
        else
            undeclared=$((undeclared + 1))
            echo "- \`qchan $shown\` differs in: ${parts[*]} (**not declared**)"
        fi
    fi
done
stale=0
if [[ -f "$declared" ]]; then
    while IFS= read -r line || [[ -n $line ]]; do
        [[ -n $line ]] || continue
        if ! grep -qxF -- "$line" "$work/listed"; then
            stale=$((stale + 1))
            echo "- declared \`$line\` names no command of the list (**stale declaration**)"
        elif ! grep -qxF -- "$line" "$work/moved"; then
            stale=$((stale + 1))
            echo "- declared \`qchan $line\` did not change (**stale declaration**)"
        fi
    done < "$declared"
fi
echo
echo "$differ of ${#commands[@]} commands differ (stdout, stderr or exit code); $undeclared of them not declared."
echo "$stale declared lines name no command that differs."
exit $((undeclared > 0 || stale > 0))
