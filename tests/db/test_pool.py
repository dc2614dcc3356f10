"""Tests for the connection pool used by the PerfExplorer server."""

import gc
import threading
import time

import pytest

from repro.db.pool import ConnectionPool, PoolTimeout


class TestPoolBasics:
    def test_acquire_release_roundtrip(self, db_url):
        pool = ConnectionPool(db_url, size=2)
        conn = pool.acquire()
        conn.execute("CREATE TABLE t (x INTEGER)")
        pool.release(conn)
        again = pool.acquire()
        assert again is conn  # LIFO reuse
        pool.close()

    def test_context_manager(self, db_url):
        with ConnectionPool(db_url, size=1) as pool:
            with pool.connection() as conn:
                conn.execute("CREATE TABLE t (x INTEGER)")
                conn.execute("INSERT INTO t VALUES (1)")
                conn.commit()
            with pool.connection() as conn:
                assert conn.scalar("SELECT count(*) FROM t") == 1

    def test_size_limit_enforced(self, db_url):
        pool = ConnectionPool(db_url, size=1)
        conn = pool.acquire()
        with pytest.raises(Exception):
            pool.acquire(timeout=0.05)
        pool.release(conn)
        pool.close()

    def test_invalid_size(self, db_url):
        with pytest.raises(ValueError):
            ConnectionPool(db_url, size=0)

    def test_closed_pool_rejects_acquire(self, db_url):
        pool = ConnectionPool(db_url, size=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.acquire()


class TestPoolConcurrency:
    def test_concurrent_borrowers_share_named_minisql(self):
        # Named MiniSQL databases share a catalog across connections —
        # this is what a PerfExplorer replica server relies on to read
        # the database its WAL applier writes (``Replica.shared_url``).
        from repro.db.minisql import reset_shared_databases

        pool = ConnectionPool("minisql://pool-test", size=4)
        setup = pool.acquire()
        setup.execute("CREATE TABLE hits (worker INTEGER)")
        setup.commit()
        pool.release(setup)

        errors = []

        def worker(i: int) -> None:
            try:
                for _ in range(20):
                    with pool.connection(timeout=5) as conn:
                        conn.execute("INSERT INTO hits VALUES (?)", (i,))
                        conn.commit()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with pool.connection() as conn:
            assert conn.scalar("SELECT count(*) FROM hits") == 80
        pool.close()
        reset_shared_databases()

    def test_acquire_release_races_never_overshoot(self, db_url):
        """Many threads hammering a small pool must never see more than
        ``size`` connections live at once, and no acquire may fail."""
        pool = ConnectionPool(db_url, size=3)
        live = 0
        peak = 0
        gate = threading.Lock()
        errors = []
        start = threading.Barrier(8)

        def worker() -> None:
            nonlocal live, peak
            try:
                start.wait(timeout=5)
                for _ in range(25):
                    conn = pool.acquire(timeout=5)
                    with gate:
                        live += 1
                        peak = max(peak, live)
                    with gate:
                        live -= 1
                    pool.release(conn)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert peak <= 3
        pool.close()

    def test_exhaustion_times_out_with_pool_timeout(self, db_url):
        pool = ConnectionPool(db_url, size=2)
        a = pool.acquire()
        b = pool.acquire()
        t0 = time.perf_counter()
        with pytest.raises(PoolTimeout) as exc_info:
            pool.acquire(timeout=0.1)
        assert time.perf_counter() - t0 >= 0.05
        assert "pool size 2" in str(exc_info.value)
        # PoolTimeout is a TimeoutError, so generic handlers catch it too
        assert isinstance(exc_info.value, TimeoutError)
        pool.release(a)
        pool.release(b)
        pool.close()

    def test_blocked_acquire_wakes_on_release(self, db_url):
        pool = ConnectionPool(db_url, size=1)
        held = pool.acquire()
        got = []

        def blocked() -> None:
            got.append(pool.acquire(timeout=5))

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        assert not got  # still parked waiting for the release
        pool.release(held)
        t.join(timeout=5)
        assert got == [held]
        pool.release(got[0])
        pool.close()

    def test_context_manager_returns_connection_for_reuse(self, db_url):
        pool = ConnectionPool(db_url, size=1)
        with pool.connection() as first:
            first.execute("CREATE TABLE r (x INTEGER)")
            first.commit()
        for i in range(5):
            with pool.connection(timeout=1) as conn:
                assert conn is first  # single slot, always recycled
                conn.execute("INSERT INTO r VALUES (?)", (i,))
                conn.commit()
        with pool.connection() as conn:
            assert conn.scalar("SELECT count(*) FROM r") == 5
        pool.close()

    def test_context_manager_releases_on_error(self, db_url):
        pool = ConnectionPool(db_url, size=1)
        with pytest.raises(RuntimeError):
            with pool.connection() as conn:
                raise RuntimeError("boom")
        # the slot must be back: a fresh acquire cannot time out
        again = pool.acquire(timeout=1)
        assert again is conn
        pool.release(again)
        pool.close()


class TestPoolRecovery:
    """A borrower that crashes without releasing must not leak its slot
    forever — the weakref finalizer reclaims capacity at GC time."""

    def test_leaked_connection_reclaims_slot(self, db_url):
        pool = ConnectionPool(db_url, size=1)

        def crashing_holder() -> None:
            conn = pool.acquire(timeout=1)
            conn.execute("CREATE TABLE t (x INTEGER)")
            raise RuntimeError("holder died without releasing")

        with pytest.raises(RuntimeError):
            crashing_holder()
        gc.collect()  # the only reference died with the frame
        conn = pool.acquire(timeout=2)  # must not PoolTimeout
        conn.execute("SELECT 1")
        pool.release(conn)
        pool.close()

    def test_blocked_acquire_recovers_after_leak(self, db_url):
        """The harder variant: acquire() is already parked waiting when
        the leaked connection gets collected — the post-timeout capacity
        re-check must hand it a replacement instead of PoolTimeout."""
        pool = ConnectionPool(db_url, size=1)
        holder = [pool.acquire(timeout=1)]
        got = []
        errors = []

        def blocked() -> None:
            try:
                # The reclaim happens while this call is parked in the
                # queue wait; the replacement is created at the timeout
                # re-check, so the call succeeds despite the timeout.
                got.append(pool.acquire(timeout=1))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        holder.clear()  # drop the only reference, never released
        gc.collect()
        t.join(timeout=10)
        assert not errors and len(got) == 1
        pool.release(got[0])
        pool.close()

    def test_untimed_acquire_wakes_on_reclaim(self, db_url):
        """acquire(timeout=None) parked on an exhausted pool must wake
        when a leaked connection is reclaimed — the finalizer posts a
        sentinel, so the waiter does not block forever."""
        pool = ConnectionPool(db_url, size=1)
        holder = [pool.acquire(timeout=1)]
        got = []

        def blocked() -> None:
            got.append(pool.acquire())  # no timeout: only a wake-up helps

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not got  # parked with no deadline
        holder.clear()  # leak: never released
        gc.collect()
        t.join(timeout=10)
        assert not t.is_alive(), "untimed acquire never woke after reclaim"
        assert len(got) == 1
        pool.release(got[0])
        pool.close()

    def test_leak_does_not_grow_pool_beyond_size(self, db_url):
        pool = ConnectionPool(db_url, size=2)
        leaked = pool.acquire()
        kept = pool.acquire()
        del leaked
        gc.collect()
        replacement = pool.acquire(timeout=2)
        # Capacity is still 2: both live connections borrowed, a third
        # acquire must time out as usual.
        with pytest.raises(PoolTimeout):
            pool.acquire(timeout=0.1)
        pool.release(kept)
        pool.release(replacement)
        pool.close()
