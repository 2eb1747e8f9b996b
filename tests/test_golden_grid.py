"""The runner's wiring against recorded outputs: a reduced four-mode grid must
reproduce tests/golden_grid.json bit for bit (see record_golden.py).

Nothing else in the suite pins how the cli derives its RNG streams, which
batch each mode gets, which support inputs it draws and how it renders the
results; this test does, for every mode at 5 and at 64 points.
"""

import json

import record_golden


def test_reduced_grid_matches_the_golden_file(tmp_path, capsys):
    golden = json.loads(record_golden.GOLDEN.read_text())
    assert golden["spec"] == record_golden.SPEC, "the grid changed; re-record the golden file"
    cells = record_golden.run_grid(tmp_path)
    capsys.readouterr()  # the run's echo lines
    difference = record_golden.first_difference(golden["cells"], cells)
    assert difference is None, (
        f"{difference}\n(recorded with {golden['recorded_with']}, this run "
        f"{record_golden.versions()}; if the change is meant, re-record with "
        f"PYTHONPATH=src python tests/record_golden.py and list old and new values in CHANGES.md)")
