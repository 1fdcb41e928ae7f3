"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 bench/setup_probe.py SRC_DIR CONFIG_PATH ALGEBRAS

Imports ``grasspin`` from SRC_DIR, builds the Grassmann algebras listed in
ALGEBRAS (comma-separated generator counts, possibly empty), loads the
config and builds its field.  The parent process times the whole process,
interpreter start included.
"""

import sys


def main(argv: list[str]) -> None:
    src, config_path, algebras = argv
    sys.path.insert(0, src)
    import grasspin
    from grasspin.config import load_config

    for n in filter(None, algebras.split(",")):
        grasspin.algebra(int(n))
    load_config(config_path).build_field()


if __name__ == "__main__":
    main(sys.argv[1:])
