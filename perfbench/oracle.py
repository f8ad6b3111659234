"""Independent oracle gate: last-writer-wins in DuckDB SQL.

The expected lake is base ∪ change log up to an LSN bound, keeping the
max-``lsn`` row per ``doc_id`` and dropping keys whose winner is a delete
tombstone.  Base rows count as inserts at lsn 0.  Identical redeliveries
share their lsn and payload, so either copy may win a tie.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

PAYLOAD = ("doc_id", "tokens", "n_tok", "source")


def _files_sql(files: list[str]) -> str:
    return "[" + ", ".join("'" + f.replace("'", "''") + "'" for f in files) + "]"


class Oracle:
    def __init__(self, base: str, log_files: list[str], temp_dir: str) -> None:
        self.con = duckdb.connect(config={"temp_directory": temp_dir, "threads": 1,
                                          "memory_limit": "1GB"})
        cols = ", ".join(PAYLOAD)
        self.con.execute(f"""
            CREATE TEMP TABLE ev AS
            SELECT 0::BIGINT AS lsn, 'insert' AS op, {cols} FROM read_parquet('{base}')
            UNION ALL
            SELECT lsn, op, {cols} FROM read_parquet({_files_sql(log_files)})""")

    def _live_sql(self, max_lsn: int | None) -> str:
        where = "" if max_lsn is None else f"WHERE lsn <= {int(max_lsn)}"
        return f"""
            SELECT * FROM (
                SELECT * FROM ev {where}
                QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) = 1)
            WHERE op <> 'delete'"""

    def fingerprint(self, max_lsn: int | None = None) -> tuple[int, int]:
        """(live rows, total tokens) of the expected lake at ``max_lsn``."""
        rows, toks = self.con.execute(
            f"SELECT count(*), coalesce(sum(len(tokens)), 0) FROM ({self._live_sql(max_lsn)})"
        ).fetchone()
        return int(rows), int(toks)

    def n_tok_sum(self, max_lsn: int | None = None) -> tuple[int, int]:
        """(live rows, sum of ``n_tok``) — the packing check's input."""
        rows, n = self.con.execute(
            f"SELECT count(*), coalesce(sum(n_tok), 0) FROM ({self._live_sql(max_lsn)})"
        ).fetchone()
        return int(rows), int(n)

    def table(self, max_lsn: int | None = None) -> pa.Table:
        return self.con.execute(
            f"SELECT {', '.join(PAYLOAD)} FROM ({self._live_sql(max_lsn)}) ORDER BY doc_id"
        ).fetch_arrow_table()

    def mismatched_docs(self, lake: pa.Table, max_lsn: int | None = None) -> int:
        """Number of doc_ids whose committed row differs from the expected
        row in any payload column (token arrays included), or that exist on
        one side only.  0 means the lake equals the oracle byte for byte."""
        want = self.table(max_lsn)
        got = lake.select(list(PAYLOAD))
        got = got.take(pc.sort_indices(got, sort_keys=[("doc_id", "ascending")]))
        if got.equals(want.cast(got.schema)):
            return 0
        self.con.register("got", got)
        try:
            return int(self.con.execute(f"""
                SELECT count(*) FROM got FULL OUTER JOIN ({self._live_sql(max_lsn)}) w
                USING (doc_id)
                WHERE got.tokens IS DISTINCT FROM w.tokens OR got.n_tok IS DISTINCT FROM w.n_tok
                   OR got.source IS DISTINCT FROM w.source
                   OR got.doc_id IS NULL OR w.doc_id IS NULL""").fetchone()[0]) or 1
        finally:
            self.con.unregister("got")

    def close(self) -> None:
        self.con.close()
