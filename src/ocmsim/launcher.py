"""The ``ocmsim`` script: the CLI in a process of one BLAS thread."""
import os


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before NumPy loads
    from . import cli
    return cli.main()
