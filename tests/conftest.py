"""Session-scoped Ray fixture (exactly one ray.init per pytest session)
and a reader of that session's Ray Data log."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data.context import DataContext, ShuffleStrategy

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


class DataLog:
    """(executions, keyed exchanges) logged to this session's
    ``ray-data.log`` since the last ``mark()``; a keyed exchange is a
    hash-shuffle or hash-aggregate operator in a logged execution plan."""

    def __init__(self):
        import ray

        session = ray._private.worker._global_node.get_session_dir_path()
        self.path = os.path.join(session, "logs", "ray-data", "ray-data.log")
        self.pos = 0

    def mark(self):
        self.pos = os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def since(self) -> tuple[int, int]:
        with open(self.path, errors="replace") as f:
            f.seek(self.pos)
            text = f.read()
        exch = sum(
            line.count("HashShuffleOperator[") + line.count("HashAggregateOperator[")
            for line in text.splitlines()
            if "Execution plan of Dataset" in line
        )
        return text.count("Starting execution of Dataset"), exch


@pytest.fixture
def data_log(ray_session) -> DataLog:
    return DataLog()


FIXTURE_JPG = "/root/reference/test/fixtures/SekienAkashita.jpg"


@pytest.fixture(scope="session")
def sekien() -> bytes:
    with open(FIXTURE_JPG, "rb") as f:
        return f.read()
