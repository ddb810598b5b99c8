"""Simulation-as-a-service: asyncio job server and client.

``python -m repro.serve`` starts the server, which fans work out over
the run engine's own process pool (``--jobs N``); ``python -m
repro.serve.client`` submits.  See DESIGN.md section 2h for the
architecture (dedup, priorities, backpressure, failure model).
"""

from repro.serve.server import DEFAULT_PORT, JobServer

__all__ = ["DEFAULT_PORT", "JobServer"]
