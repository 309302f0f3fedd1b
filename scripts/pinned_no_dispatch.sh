#!/usr/bin/env bash
# The pinned-output tests with every numpy kernel that is dispatched per CPU
# disabled.  numpy's dispatched SIMD kernels of np.exp and np.log can differ
# in the last bit from its baseline ones, which the 9-digit text hides on the
# pinned recordings; this run checks that.  A kernel name the CPU lacks only
# gives an ImportWarning.  Run from the root of the repository:
#
#   bash scripts/pinned_no_dispatch.sh
#
# A failing test ends the script with a non-zero status.
set -euo pipefail

NPY_DISABLE_CPU_FEATURES="$(python - <<'EOF'
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__
print(" ".join(__cpu_dispatch__))
EOF
)"
export NPY_DISABLE_CPU_FEATURES
echo "NPY_DISABLE_CPU_FEATURES=$NPY_DISABLE_CPU_FEATURES"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_pinned_output.py
