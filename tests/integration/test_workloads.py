"""Integration tests: every paper workload runs and shows the right trend.

These use scaled-down parameters (the benchmarks in ``benchmarks/`` use
larger ones); each asserts the qualitative result the paper reports.
"""

import functools

import pytest

from repro import SystemConfig
from repro.common.units import KB, MB
from repro.copyengine import ALIASES, backend_names, canonical_name
from repro.workloads.common import engine_needs_ctt


class TestCopyLatencyMicro:
    def test_mcsquare_beats_memcpy_at_1kb_and_above(self):
        from repro.workloads.micro.latency import measure_copy_latency
        for size in (1 * KB, 16 * KB, 64 * KB):
            eager = measure_copy_latency("memcpy", size)["cycles"]
            lazy = measure_copy_latency("mcsquare", size)["cycles"]
            assert lazy < eager, f"(MC)^2 should win at {size}"

    def test_zio_loses_small_wins_large(self):
        from repro.workloads.micro.latency import measure_copy_latency
        eager16 = measure_copy_latency("memcpy", 16 * KB)["cycles"]
        zio16 = measure_copy_latency("zio", 16 * KB)["cycles"]
        assert zio16 > eager16          # elision overhead dominates
        eager256 = measure_copy_latency("memcpy", 256 * KB)["cycles"]
        zio256 = measure_copy_latency("zio", 256 * KB)["cycles"]
        assert zio256 < eager256        # elision pays off

    def test_touched_memcpy_beats_mcsquare_small(self):
        from repro.workloads.micro.latency import measure_copy_latency
        touched = measure_copy_latency("memcpy", 256, touched=True)["cycles"]
        lazy = measure_copy_latency("mcsquare", 256)["cycles"]
        assert touched < lazy

    def test_breakdown_writeback_grows_with_size(self):
        from repro.workloads.micro.latency import measure_lazy_breakdown
        small = measure_lazy_breakdown(256)
        large = measure_lazy_breakdown(64 * KB)
        assert large["writeback_frac"] > small["writeback_frac"]


class TestAccessMicro:
    def test_sequential_access_prefetch_hides_bounces(self):
        from repro.workloads.micro.access import run_sequential_access
        size = 256 * KB
        base = run_sequential_access("memcpy", 1.0, size)["cycles"]
        mc2 = run_sequential_access("mcsquare", 1.0, size)["cycles"]
        nopf = run_sequential_access(
            "mcsquare", 1.0, size,
            config=SystemConfig(prefetch_enabled=False))["cycles"]
        assert mc2 < base * 1.1         # roughly at or below memcpy
        assert nopf > mc2               # prefetching is what saves it

    # The random-access experiment needs a buffer larger than the LLC
    # (the paper uses 4MB vs a 2MB L2); scale both down together.
    RAND_CONFIG = SystemConfig(l1_size=16 * KB, l2_size=256 * KB)
    RAND_SIZE = 512 * KB

    def test_random_access_writeback_optimization(self):
        from repro.workloads.micro.access import run_random_access
        with_wb = run_random_access("mcsquare", 1.0, self.RAND_SIZE,
                                    config=self.RAND_CONFIG)["cycles"]
        without = run_random_access(
            "mcsquare", 1.0, self.RAND_SIZE,
            config=self.RAND_CONFIG.with_overrides(
                bounce_writeback=False))["cycles"]
        assert without > with_wb

    def test_random_access_aligned_beats_misaligned(self):
        from repro.workloads.micro.access import run_random_access
        misaligned = run_random_access("mcsquare", 0.5, self.RAND_SIZE,
                                       config=self.RAND_CONFIG,
                                       misalign=16)["cycles"]
        aligned = run_random_access("mcsquare", 0.5, self.RAND_SIZE,
                                    config=self.RAND_CONFIG,
                                    misalign=0)["cycles"]
        assert aligned < misaligned


class TestSrcWriteMicro:
    def test_bigger_bpq_is_faster(self):
        from repro.workloads.micro.srcwrite import run_source_write
        slow = run_source_write(16 * KB, bpq_entries=1)["cycles"]
        fast = run_source_write(16 * KB, bpq_entries=8)["cycles"]
        assert fast < slow


class TestProtobuf:
    def test_mcsquare_speeds_up_protobuf(self):
        from repro.workloads.protobuf import run_protobuf
        base = run_protobuf("memcpy", num_ops=40)
        mc2 = run_protobuf("mcsquare", num_ops=40)
        assert mc2["cycles"] < base["cycles"]

    def test_backend_spelling_keeps_interposer_threshold(self):
        """Every spelling of the lazy backend gets the 1 KB interposer."""
        from repro.workloads.protobuf import run_protobuf
        canonical = run_protobuf("mclazy", num_ops=12)
        alias = run_protobuf("mcsquare", num_ops=12)
        assert canonical.pop("engine") == "mclazy"
        assert alias.pop("engine") == "mcsquare"
        assert canonical == alias

    def test_zio_cannot_elide_protobuf(self):
        """All copies are sub-page, so zIO ~ baseline (Fig. 14)."""
        from repro.workloads.protobuf import run_protobuf
        base = run_protobuf("memcpy", num_ops=40)
        zio = run_protobuf("zio", num_ops=40)
        assert abs(zio["cycles"] - base["cycles"]) / base["cycles"] < 0.2

    def test_copy_overhead_is_substantial(self):
        from repro.workloads.protobuf import run_protobuf
        base = run_protobuf("memcpy", num_ops=15)
        assert base["copy_fraction"] > 0.3  # Fig. 2 shows ~50-68%

    def test_size_distribution_matches_cdf(self):
        from repro.workloads.protobuf import size_distribution
        dist = dict(size_distribution())
        assert 0.9 < dist[1024] <= 0.97    # ~56% of copies are 1KB
        assert dist[4096] == 1.0


class TestMongo:
    def test_mcsquare_faster_zio_slower(self):
        from repro.workloads.mongo import run_mongo
        kwargs = dict(num_inserts=2, field_size=32 * KB)
        base = run_mongo("memcpy", **kwargs)["avg_insert_latency_cycles"]
        mc2 = run_mongo("mcsquare", **kwargs)["avg_insert_latency_cycles"]
        zio = run_mongo("zio", **kwargs)["avg_insert_latency_cycles"]
        assert mc2 < base
        assert zio > base              # fault penalties on accessed copies


class TestMvcc:
    def test_small_updates_benefit_most(self):
        from repro.workloads.mvcc import run_mvcc
        txns = 12
        base_small = run_mvcc("memcpy", 0.0625,
                              txns_per_thread=txns)["kops_per_sec"]
        mc2_small = run_mvcc("mcsquare", 0.0625,
                             txns_per_thread=txns)["kops_per_sec"]
        assert mc2_small > base_small

        base_full = run_mvcc("memcpy", 1.0,
                             txns_per_thread=txns)["kops_per_sec"]
        mc2_full = run_mvcc("mcsquare", 1.0,
                            txns_per_thread=txns)["kops_per_sec"]
        ratio_small = mc2_small / base_small
        ratio_full = mc2_full / base_full
        assert ratio_small > ratio_full  # benefit shrinks as updates grow

    def test_eight_threads_run(self):
        from repro.workloads.mvcc import run_mvcc
        r = run_mvcc("mcsquare", 0.125, num_threads=8, txns_per_thread=5)
        assert r["txns"] == 40
        assert r["kops_per_sec"] > 0


class TestHugepage:
    def test_spikes_much_lower_with_mcsquare(self):
        from repro.workloads.hugepage import run_hugepage_cow
        native = run_hugepage_cow("native", region_size=8 * MB,
                                  num_updates=10)
        mc2 = run_hugepage_cow("mcsquare", region_size=8 * MB,
                               num_updates=10)
        assert native["cow_faults"] > 0
        # Worst-case fault latency at least an order of magnitude lower.
        assert native["max_latency"] > 10 * mc2["max_latency"]


class TestPipe:
    def test_throughput_improves_for_large_transfers(self):
        from repro.workloads.pipe import run_pipe
        native = run_pipe("native", 16 * KB, num_transfers=4)
        mc2 = run_pipe("mcsquare", 16 * KB, num_transfers=4)
        assert mc2["bytes_per_kcycle"] > 1.3 * native["bytes_per_kcycle"]


def _pipe(name):
    from repro.workloads.pipe import PipeTransferWorkload
    return PipeTransferWorkload(name, 2 * KB, num_transfers=2)


def _hugepage(name):
    from repro.workloads.hugepage import HugePageCowWorkload
    return HugePageCowWorkload(name, region_size=2 * MB, num_updates=2)


@functools.lru_cache(maxsize=None)
def _kernel_result(build, name):
    return build(name).run()


class TestKernelCopyBackends:
    """Figs. 18-19 run whichever registered backend they are given."""

    @pytest.mark.parametrize("build", [_pipe, _hugepage],
                             ids=["pipe", "hugepage"])
    @pytest.mark.parametrize("name", backend_names() + sorted(ALIASES))
    def test_backend_name_selects_backend(self, build, name):
        workload = build(name)
        assert workload.engine.name == canonical_name(name)
        # Backends that do not use the CTT run on a vanilla controller.
        assert workload.system.config.mcsquare_enabled == \
            engine_needs_ctt(name)
        # An alias is its canonical backend, label included.
        assert _kernel_result(build, name) == \
            _kernel_result(build, canonical_name(name))


class TestRedis:
    def test_pipeline_benefits_and_uses_mcfree(self):
        from repro.workloads.redis import run_redis
        base = run_redis("memcpy", num_commands=25)
        mc2 = run_redis("mcsquare", num_commands=25)
        assert mc2["cycles"] < base["cycles"]
        assert mc2["mcfrees"] > 0          # frees reached the controller
        assert mc2["allocations"] == base["allocations"]

    def test_allocator_churn_stays_consistent(self):
        from repro.workloads.redis import RedisWorkload
        w = RedisWorkload("mcsquare", num_commands=40)
        w.run()
        w.allocator.check_invariants()
        # The keyspace buffers are still live; AOF buffers churned.
        assert w.allocator.frees > 0
