"""Loading the library session's inputs, shared by the session and the set-up probe."""

import json
from pathlib import Path


def load_pool(pool_file: str):
    """Load the session's algebras once each and build its homomorphisms."""
    from pfdual import algebra, formats

    pool = json.loads(Path(pool_file).read_text())
    algebras = [formats.load_algebra(path) for path in pool["algebras"]]
    homs = []
    for h in pool["homs"]:
        source, target = algebras[h["source"]], algebras[h["target"]]
        index = {name: i for i, name in enumerate(target.names)}
        homs.append(algebra.Homomorphism(
            source, target, tuple(index[h["map"][name]] for name in source.names)))
    return homs
