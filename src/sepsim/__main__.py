"""The `sepsim` command, also run as `python -m sepsim`.

BLAS libraries size their thread pools when numpy is first imported, so
`main` asks OpenBLAS, OpenMP and MKL for one thread each, unless the user
has set the variable, before it imports `sepsim.cli`: the models' matmuls
are small, and extra BLAS threads slow them down many times on a busy machine.
"""
import os
import sys


def main(argv=None) -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from sepsim.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
