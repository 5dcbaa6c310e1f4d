#!/bin/sh
# Fail if a serving process or a serving artifact outlived the run: every
# supervised worker (`python -m repro.serving.worker`) and every server
# started as `python -m repro.experiments serve` must be reaped, and every
# supervisor checkpoint directory and staged checkpoint file removed.  A
# checkpoint is one file, so `*.ckpt.tmp*` matches every staging file a
# checkpoint write leaves (`<name>.ckpt.tmp.<pid>.<n>`).  The bracketed grep
# patterns cannot match their own command line.
orphans=$(ps aux | grep -e '[-]m repro.serving.worker' -e '[-]m repro.experiments serve' || true)
stale=$(ls -d "${TMPDIR:-/tmp}"/repro-serve-ckpt-* 2>/dev/null || true)
tmp_ckpts=$(find "${TMPDIR:-/tmp}" -maxdepth 2 -name '*.ckpt.tmp*' 2>/dev/null || true)
if [ -n "$orphans" ] || [ -n "$stale" ] || [ -n "$tmp_ckpts" ]; then
  echo "orphaned serving artifacts:"
  echo "$orphans"
  echo "$stale"
  echo "$tmp_ckpts"
  exit 1
fi
