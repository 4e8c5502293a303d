"""The benchmark's workloads: fixed lists of qsnake CLI lines.

A repetition runs one list in order inside one fresh interpreter.  The
workload seed is appended to every line as ``--seed``; the character
lines take no random input, so the seed leaves them unchanged.  Why each
list was chosen is recorded in README.md beside this file.
"""

WORKLOADS = {
    # Laurent products and inspection scans of snake and KR characters.
    "characters": (
        ("qchar", "--l", "7"),
        ("census", "--l", "6"),
        ("tsystem",),
        ("qchar", "--n", "3", "--snake-l", "7"),
    ),
    # Density windows, window-shift maps and their dense checks, L=4.
    "windows": (
        ("lattice", "--L", "4"),
        ("rqkz", "--L", "4"),
    ),
    # Vertex identities, exact ranks of fused loop products, RatFun poles.
    "fusion": (
        ("rmatrix",),
        ("pole",),
        ("snail", "--n", "2", "--max-k", "3"),
        ("snail", "--n", "3", "--max-k", "2"),
    ),
}


def lines_for(workload, seed):
    """The argv lists of one repetition, without the --json target."""
    return [list(line) + ["--seed", str(seed)] for line in WORKLOADS[workload]]
