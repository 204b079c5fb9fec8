#!/bin/sh
# Numeric flags take plain decimal values: a sign, an empty value, nan,
# inf or a value too large to hold must be refused as a usage error
# (exit status 2 and the usage line on stderr), never read as 0, as
# "none" or wrapped to 2^64-1.
#
# Usage: usage_errors.sh TOOL "FLAG..." [ARGS...]
#   Runs `TOOL FLAG=V ARGS...` for every FLAG and each bad V, and prints
#   "usage errors OK" when every run was refused. ARGS should make the
#   run fail fast in another way should the flag be accepted.
tool=$1
flags=$2
shift 2
for flag in $flags; do
    for v in -1 +1 '' nan inf 1e300; do
        err=$("$tool" "$flag=$v" "$@" 2>&1 >/dev/null)
        rc=$?
        if [ "$rc" -ne 2 ]; then
            echo "FAIL: $flag=$v exited $rc, want 2"
            exit 1
        fi
        case $err in
            *usage:*) ;;
            *) echo "FAIL: $flag=$v printed no usage line: $err"; exit 1 ;;
        esac
    done
done
echo "usage errors OK"
