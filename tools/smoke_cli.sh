#!/usr/bin/env bash
# CLI input-validation smoke: every malformed flag value is refused with
# exit 2 and one "invalid value for --flag" line — never wrapped into a
# huge unsigned number, never an abort — a ctc_sentry configuration error
# exits 2 with one "ctc_sentry: ..." line, and the bench --dry-run line
# stays valid JSON whatever characters --telemetry-out carries.
#
# usage: smoke_cli.sh <build_dir> <source_dir>
set -euo pipefail

build_dir=${1:?usage: smoke_cli.sh <build_dir> <source_dir>}
source_dir=${2:?usage: smoke_cli.sh <build_dir> <source_dir>}
bench="$build_dir/bench/table2_attack_awgn"
campaign="$build_dir/tools/ctc_campaign"
sentry="$build_dir/tools/ctc_sentry"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# expect_exit2 <stderr substring> <command...>: the command must exit 2 and
# print the substring on stderr.
expect_exit2() {
  local needle=$1
  shift
  local code=0
  "$@" > "$work/out" 2> "$work/err" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: exit $code (want 2): $*" >&2
    cat "$work/err" >&2
    exit 1
  fi
  if ! grep -qF -- "$needle" "$work/err"; then
    echo "FAIL: stderr lacks '$needle': $*" >&2
    cat "$work/err" >&2
    exit 1
  fi
  echo "ok: exit 2 ($needle): ${*#"$build_dir"/}"
}

expect_exit2 "invalid value for --threads" "$bench" --dry-run --threads=-1
expect_exit2 "invalid value for --seed" "$bench" --dry-run --seed=-1
expect_exit2 "invalid value for --seed" "$bench" --dry-run \
  --seed=9223372036854775808
expect_exit2 "invalid value for --trials" "$bench" --dry-run \
  --trials=99999999999999999999999
expect_exit2 "invalid value for --threads" "$campaign" run \
  "$source_dir/campaigns/smoke_2x2.json" --out "$work/campaign" --threads=-1
expect_exit2 "invalid value for --threshold" "$sentry" live --threshold=nan
expect_exit2 "invalid value for --snr-db" "$sentry" live --snr-db=nan
expect_exit2 "invalid value for --rate" "$sentry" live --rate=nan
expect_exit2 "ctc_sentry: " "$sentry" live --frames=1 --threshold=-1
expect_exit2 "ctc_sentry: " "$sentry" live --frames=1 --channels=0

# The largest accepted seed prints exactly.
"$bench" --dry-run --seed=9223372036854775807 > "$work/max_seed.json"
python3 - "$work/max_seed.json" <<'EOF'
import json, sys
config = json.load(open(sys.argv[1]))
assert config["seed"] == 9223372036854775807, config
EOF
echo "ok: --seed=2^63-1 printed exactly"

# A control character in --telemetry-out is escaped in the dry-run line.
"$bench" --dry-run --telemetry-out=$'t\tx.json' > "$work/dry_run.json"
python3 - "$work/dry_run.json" <<'EOF'
import json, sys
config = json.load(open(sys.argv[1]))
assert config["telemetry_out"] == "t\tx.json", config
EOF
echo "ok: --dry-run with a tab in --telemetry-out is valid JSON"
