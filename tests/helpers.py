"""Shared test helpers."""

from haarnewton.bench import CSV_HEADER, ComparisonTable, TableRow


def parse_csv(text: str) -> ComparisonTable:
    """Inverse of format_table(..., 'csv'); used for round-trip checks."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed csv header")
    table = ComparisonTable()
    for line in lines[1:]:
        function, x0, method, status, iterations, nfe, root = line.split(",")
        table.rows.append(
            TableRow(function, float(x0), method, status, int(iterations), int(nfe), root)
        )
    return table
