"""The cycle-level clustered out-of-order processor (§2 of the paper).

Six stages — fetch, decode/rename/steer, issue, execute, writeback,
commit — over N homogeneous clusters.  Per cycle, in order:

1. **writeback events**: scheduled completions, producer-side value
   verification, verification-copy mismatch deliveries;
2. **commit**: in-order retirement (stores take a D-cache port; the
   previous mapping set of each destination register is released);
3. **issue**: per cluster and per side (int/fp), oldest-first among
   ready uops within the issue widths, functional units, D-cache ports
   and interconnect paths; the NREADY imbalance figure is measured here;
4. **decode/rename/steer**: value-predictor lookup+update, steering,
   map-table rename with demand-generated copies and verification-
   copies, dispatch into the issue queues and the ROB;
5. **fetch**: the front end refills the fetch buffer.

Speculation follows §2.2: confident predicted operands dispatch
speculatively; the producer verifies local predictions one cycle after
its writeback; verification-copies verify remote predictions in the
producer's cluster and forward the value only on mismatch; failures
selectively invalidate and reissue the consumer and, transitively,
everything that used its result, through the normal issue mechanism.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..cluster import Cluster, FUPool, NEVER, NEXT_TRY_IDLE
from ..errors import ConfigError, SimulationError
from ..frontend import (BranchTargetBuffer, CombinedPredictor,
                        FetchEngine, FetchedInst)
from ..interconnect import Interconnect
from ..isa.instruction import Instruction
from ..isa.registers import NUM_LOGICAL_REGS, ZERO_REG
from ..memory import MemoryHierarchy
from ..obs.events import (EV_COMMIT, EV_COMPLETE, EV_COPY_SEND,
                          EV_DISPATCH, EV_FETCH, EV_ISSUE, EV_SQUASH,
                          EV_STEER, EV_VCOPY_VERIFY)
from ..obs.interval import IntervalMetrics
from ..obs.tracer import POSTMORTEM_WINDOW
from ..predictor import PREDICTORS, ValuePredictor
from ..rename import FP_BANK, INT_BANK, RenameUnit
from ..steering import STEERERS, DCountTracker, NReadyMeter
from ..validation.watchdog import (ClusterSnapshot, PipelineSnapshot,
                                   PipelineWatchdog)
from .config import ProcessorConfig
from .stats import SimResult, SimStats
from .uop import (KIND_COPY, KIND_INST, KIND_VCOPY, MODE_FWD, MODE_LOCAL,
                  MODE_PRED, MODE_ZERO, Operand, STATE_COMMITTED, STATE_DONE,
                  STATE_ISSUED, STATE_WAITING, Uop)

__all__ = ["Processor"]

_EV_COMPLETE = 0
_EV_VERIFY = 1
_EV_VDELIVER = 2

#: Profiler phase of each stage of the cycle loop, in loop order.
_STAGE_PHASES = ("other", "events", "commit", "issue", "decode", "fetch")

#: The zero register's steering view; it never changes.
_ZERO_VIEW = (True, frozenset(), None, False)


def _timed(profiler, phase: str, stage):
    """*stage* with its host wall-clock added to *profiler*'s *phase*."""
    seconds = profiler.seconds
    clock = profiler.clock

    def timed(cycle: int) -> None:
        start = clock()
        stage(cycle)
        seconds[phase] += clock() - start
    return timed


class _Template:
    """Decode facts of one static instruction.

    Built on the instruction's first decode and read by every dynamic
    instance of it, so decode, dispatch and issue index these instead
    of re-deriving them from the opcode and register ids.

    Attributes:
        sources: ``(slot, logical, fp)`` per source operand in slot
            order, *fp* marking the fp register bank.
        predictors: ``(slot, predict)`` per predictable source (integer
            and not the zero register), *predict* the value predictor's
            ``bind(pc, slot)`` call for it
            (:class:`~repro.predictor.ValuePredictor`); empty when the
            predictor never predicts.
        unpredicted: one ``None`` per source: the predictions of a
            dynamic instance with no confident prediction.
        dest: logical register to rename, ``None`` when the instruction
            writes none or writes the zero register.
        dest_bank: free-list bank of *dest*.
        int_side: issues from the integer queue and width.
        fu: functional-unit descriptor (:meth:`FUPool.descriptor`), its
            last field the execution latency.
    """

    __slots__ = ("sources", "predictors", "unpredicted", "dest",
                 "dest_bank", "int_side", "fu")

    def __init__(self, static: Instruction,
                 vp: Optional[ValuePredictor], fupool: FUPool) -> None:
        self.sources = tuple(
            (slot, logical, fp) for slot, (logical, fp)
            in enumerate(zip(static.srcs, static.srcs_fp)))
        self.predictors = () if vp is None else tuple(
            (slot, vp.bind(static.pc, slot))
            for slot, logical, fp in self.sources
            if logical != ZERO_REG and not fp)
        self.unpredicted = (None,) * len(static.srcs)
        dest = static.dest
        self.dest = None if dest == ZERO_REG else dest
        self.dest_bank = FP_BANK if static.dest_fp else INT_BANK
        self.int_side = static.op.is_int
        self.fu = fupool.descriptor(static.op.opclass)


class Components:
    """The value predictor, branch predictor, BTB and memory hierarchy
    of a configuration, built cold.

    A :class:`Processor` builds its own unless it is handed one
    (``shared=``); sampled simulation warms one across its windows
    (:mod:`repro.analysis.sampling`).
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.memory = MemoryHierarchy(dcache_ports=config.dcache_ports)
        self.bpred = CombinedPredictor()
        self.btb = (BranchTargetBuffer(config.btb_entries)
                    if config.btb_entries else None)
        self.vp = PREDICTORS[config.predictor](config)


class Processor:
    """One simulation instance: a config plus a dynamic trace to replay.

    Args:
        config: processor parameterization.
        trace: iterable of :class:`DynInst` to replay.
        golden: optional :class:`~repro.validation.golden.GoldenModel`
            co-simulator; every committed program instruction is
            replayed against it (in batches of
            ``config.golden_interval``).
        injector: optional
            :class:`~repro.validation.faults.FaultInjector`; perturbs
            predictions, steering and the interconnect, and is notified
            when an injected corruption is caught by verification.
        tracer: optional :class:`~repro.obs.EventTracer`; the pipeline
            stages emit typed events into it (docs/OBSERVABILITY.md).
        profiler: optional :class:`~repro.obs.PhaseProfiler`; the run
            loop attributes host wall-clock to its pipeline stages.
        shared: optional :class:`Components` used in place of the cold
            ones this processor would build; sampled simulation passes
            the ones its functional warming trains
            (:mod:`repro.analysis.sampling`).

    All three observers are strictly read-only: with any combination
    installed, the committed instruction stream and every ``SimStats``
    field are identical to an uninstrumented run.
    """

    def __init__(self, config: ProcessorConfig, trace, *,
                 golden=None, injector=None, tracer=None,
                 profiler=None, shared=None) -> None:
        config.validate()
        if injector is not None and config.predictor == "perfect":
            raise ConfigError(
                "fault injection is incompatible with the perfect "
                "predictor: its oracle mode skips the verification "
                "machinery that detects injected corruptions")
        self.config = config
        self._golden = golden
        self._injector = injector
        self._tracer = tracer
        self.profiler = profiler
        self.metrics = (IntervalMetrics(config.metrics_interval,
                                        config.n_clusters)
                        if config.metrics_interval else None)
        self.stats = SimStats()
        self.stats.dispatch_per_cluster = [0] * config.n_clusters
        self.stats.issued_per_cluster = [0] * config.n_clusters
        self.stats.iq_occupancy_sum = [0] * config.n_clusters
        if shared is None:
            shared = Components(config)
        self.memory = shared.memory
        self.bpred = shared.bpred
        self.btb = shared.btb
        self.vp = shared.vp
        self.fetch = FetchEngine(trace, self.memory.fetch_latency,
                                 self.bpred, width=config.fetch_width,
                                 buffer_capacity=config.fetch_buffer,
                                 btb=self.btb)
        self.clusters: List[Cluster] = [
            Cluster(c, config.iq_size, 2 * config.pregs_per_cluster,
                    FUPool(config.int_units, config.int_muldiv,
                           config.fp_units, config.fp_muldiv,
                           config.int_issue_width, config.fp_issue_width,
                           config.latencies))
            for c in range(config.n_clusters)]
        self.renamer = RenameUnit(NUM_LOGICAL_REGS, config.n_clusters,
                                  config.pregs_per_cluster)
        for cluster, preg in self.renamer.reset_mapping():
            self.clusters[cluster].regfile.set_ready(preg, 0)
        self.interconnect = Interconnect(config.n_clusters,
                                         config.comm_latency,
                                         config.comm_paths_per_cluster,
                                         fault_injector=injector)
        self.interconnect.tracer = tracer
        self._vp_enabled = self.vp.bind is not None
        # The perfect predictor is the paper's idealized upper bound
        # (§3.3): predictions are free and always right, so no
        # verification-copies are dispatched and no verification latency
        # is charged — the study isolates what communication removal
        # alone could buy.
        self._oracle = config.predictor == "perfect"
        self.steerer = STEERERS[config.steering](config)
        self.dcount = DCountTracker(config.n_clusters)
        self.nready = NReadyMeter(config.n_clusters)
        self.rob: deque = deque()
        self._events: Dict[int, List[tuple]] = {}
        self._next_order = 0
        # Decode template per static instruction (keyed by the
        # Instruction itself: two instructions can share a pc).
        self._templates: Dict[Instruction, _Template] = {}
        # Memory disambiguation: decoded stores whose address generation
        # has not issued yet, and issued-but-uncommitted stores by address.
        self._pending_store_addrs: set = set()
        self._inflight_stores: Dict[int, List[Uop]] = {}
        # Stores that have generated their address but still await their
        # data value (the store-queue data side).
        self._stores_awaiting_data: List[Uop] = []
        self._dports_used = 0
        # The decode loop reads every cluster's ready scoreboard for
        # every source operand.
        self._ready_arrays = [cl.regfile.ready for cl in self.clusters]
        # With one cluster every operand is local: decode needs no
        # steering views, steering decision or copies.
        self._one_cluster = config.n_clusters == 1
        # Read-only operands shared by every non-speculative source: one
        # per register index (the reader's cluster picks the file).
        self._local_operands = [Operand(MODE_LOCAL, preg) for preg
                                in range(2 * config.pregs_per_cluster)]
        self._zero_operand = Operand(MODE_ZERO)
        self.cycle = 0
        self.watchdog = PipelineWatchdog(config.deadlock_cycles)

    # -------------------------------------------------------------- pickling --

    def __getstate__(self):
        # The decode templates are derived state holding bound predictor
        # calls, which do not pickle; a restored processor rebuilds them.
        state = dict(self.__dict__)
        state["_templates"] = {}
        return state

    # ------------------------------------------------------------------ run --

    def run(self, max_cycles: Optional[int] = None,
            max_insts: Optional[int] = None) -> SimResult:
        """Simulate until the trace drains; returns the result bundle."""
        self.run_until(max_cycles, max_insts)
        return self._finalize()

    def run_until(self, max_cycles: Optional[int] = None,
                  max_insts: Optional[int] = None):
        """Advance the timing loop without finalizing; returns stats.

        Stops at the cycle/instruction bound (checked at cycle
        boundaries, so ``max_insts`` stops at the first cycle where the
        committed count reaches it), or when the trace drains.  The loop
        can be re-entered — sampling and snapshotting both rely on a
        stopped machine resuming bit-identically — and the caller
        finalizes exactly once via :meth:`run`'s tail or
        :meth:`finalize`.
        """
        stages = (self._bookkeeping, self._writeback, self._commit,
                  self._issue, self._decode, self.fetch.tick)
        profiler = self.profiler
        if profiler is None:
            self._cycle_loop(stages, max_cycles, max_insts)
            return self.stats
        # Profiling wraps each stage in a timer; the loop is the same.
        stages = tuple(_timed(profiler, phase, stage)
                       for phase, stage in zip(_STAGE_PHASES, stages))
        first_cycle, start = self.cycle, profiler.clock()
        self._cycle_loop(stages, max_cycles, max_insts)
        profiler.total_seconds += profiler.clock() - start
        profiler.cycles += self.cycle - first_cycle
        return self.stats

    def finalize(self) -> SimResult:
        """Assemble the result bundle for a :meth:`run_until` caller."""
        return self._finalize()

    def _cycle_loop(self, stages, max_cycles: Optional[int],
                    max_insts: Optional[int]) -> None:
        """The timing loop: one call per stage per cycle.

        Per-cycle work is kept to the stage calls themselves; everything
        skippable inside the stages is gated by the event-driven wake
        machinery (``_events``, the queues' ``next_try`` bounds), so an
        idle stage costs one comparison, not a scan.
        """
        bookkeeping, writeback, commit, issue, decode, fetch_tick = stages
        fetch = self.fetch
        stats = self.stats
        while not (fetch.done and not self.rob):
            cycle = self.cycle
            if max_cycles is not None and cycle >= max_cycles:
                break
            if max_insts is not None and stats.committed_insts >= max_insts:
                break
            bookkeeping(cycle)
            writeback(cycle)
            commit(cycle)
            issue(cycle)
            decode(cycle)
            fetch_tick(cycle)
            self.cycle = cycle + 1

    def _bookkeeping(self, cycle: int) -> None:
        """Interval-metric sampling and interconnect record pruning."""
        metrics = self.metrics
        if cycle and metrics is not None and cycle % metrics.interval == 0:
            metrics.sample(self, cycle)
        if cycle and cycle % 8192 == 0:
            # Only reservations departing at cycle + 1 or later are
            # ever looked up again.
            self.interconnect.prune(cycle)

    def _finalize(self) -> SimResult:
        """Assemble the result bundle after the loop drains or stops."""
        if self.metrics is not None:
            self.metrics.finish(self, self.cycle)
        self.stats.cycles = self.cycle
        self.stats.avg_imbalance = self.nready.average
        self.stats.cond_branches = self.bpred.stats.lookups
        self.stats.branch_mispredictions = self.bpred.stats.mispredictions
        vp_stats = {
            "lookups": self.vp.stats.lookups,
            "confident": self.vp.stats.confident,
            "confident_fraction": self.vp.stats.confident_fraction,
            "hit_ratio": self.vp.stats.hit_ratio,
        }
        bp_stats = {
            "lookups": self.bpred.stats.lookups,
            "mispredictions": self.bpred.stats.mispredictions,
            "accuracy": self.bpred.stats.accuracy,
        }
        if self.btb is not None:
            bp_stats["btb_miss_rate"] = self.btb.miss_rate
        validation = {}
        if self._golden is not None:
            validation["golden_commits"] = self._golden.finish(self.cycle)
            validation["golden_batches"] = self._golden.batches
        if self._injector is not None:
            report = self._injector.report
            validation["fault_plan"] = self._injector.plan.describe()
            validation["fault_report"] = report
            self.stats.injected_faults = report.total_injected
            self.stats.detected_faults = report.detected_values
        return SimResult(self.stats, self.config, self.memory.stats(),
                         vp_stats, bp_stats, validation,
                         metrics=self.metrics, profile=self.profiler)

    def pipeline_snapshot(self, cycle: int, last_commit_cycle: int,
                          budget: int) -> PipelineSnapshot:
        """Structured stall post-mortem (the watchdog's failure payload)."""
        head = self.rob[0] if self.rob else None
        clusters = []
        for cluster in self.clusters:
            cid = cluster.cluster_id
            clusters.append(ClusterSnapshot(
                cluster_id=cid,
                iq_int_occupancy=len(cluster.iq_int),
                iq_int_capacity=cluster.iq_int.capacity,
                iq_fp_occupancy=len(cluster.iq_fp),
                iq_fp_capacity=cluster.iq_fp.capacity,
                free_pregs=[len(pool) for pool in self.renamer.free[cid]]))
        return PipelineSnapshot(
            cycle=cycle,
            last_commit_cycle=last_commit_cycle,
            budget=budget,
            rob_occupancy=len(self.rob),
            rob_size=self.config.rob_size,
            rob_head=repr(head) if head is not None else None,
            rob_head_unverified=head.unverified if head else None,
            rob_head_min_issue=head.min_issue_cycle if head else None,
            fetch_done=self.fetch.done,
            clusters=clusters,
            inflight_bus_messages=self.interconnect.inflight(cycle),
            pending_store_addrs=len(self._pending_store_addrs),
            stores_awaiting_data=len(self._stores_awaiting_data),
            decode_stalls=dict(self.stats.decode_stalls),
            dispatched_per_cluster=list(self.stats.dispatch_per_cluster),
            issued_per_cluster=list(self.stats.issued_per_cluster),
            recent_events=(self._tracer.recent(POSTMORTEM_WINDOW)
                           if self._tracer is not None else []))

    # ----------------------------------------------------------- writeback --

    def _schedule(self, cycle: int, event: tuple) -> None:
        events = self._events
        queued = events.get(cycle)
        if queued is None:
            events[cycle] = [event]
        else:
            queued.append(event)

    def _writeback(self, cycle: int) -> None:
        """This cycle's scheduled events, then the store-data drain."""
        self._dports_used = 0
        events = self._events.pop(cycle, None)
        if events:
            for kind, uop, generation in events:
                if uop.generation != generation:
                    continue  # stale: the uop was invalidated and will redo
                if kind == _EV_COMPLETE:
                    self._complete(uop, cycle)
                elif kind == _EV_VERIFY:
                    self._run_verifications(uop, cycle)
                else:  # _EV_VDELIVER
                    self._deliver_mismatch(uop, cycle)
        if self._stores_awaiting_data:
            self._drain_store_data(cycle)

    def _complete(self, uop: Uop, cycle: int) -> None:
        if uop.state != STATE_ISSUED:
            return
        uop.state = STATE_DONE
        uop.complete_cycle = cycle
        tracer = self._tracer
        if tracer is not None:
            # Inline emission (here and at every hook below): a bound
            # C append is ~10x cheaper than a tracer method call, and
            # writeback/issue/commit each fire once per uop.
            tracer.counts[EV_COMPLETE] += 1
            tracer.emit((cycle, EV_COMPLETE, uop.order, uop.kind,
                         uop.cluster))
        if uop.kind == KIND_VCOPY:
            operand = uop.consumer_operand
            if operand.correct and not operand.verified:
                operand.verified = True
                uop.consumer.unverified -= 1
            return
        if uop.verify_list:
            self._schedule(cycle + 1, (_EV_VERIFY, uop, uop.generation))
        if (uop.kind == KIND_INST and uop.mispredicted_branch):
            self.fetch.branch_resolved(uop.dyn.seq, cycle)

    def _run_verifications(self, producer: Uop, cycle: int) -> None:
        """Producer-side verification, one cycle after writeback (§2.2)."""
        pending = producer.verify_list
        producer.verify_list = ()
        for consumer, operand in pending:
            if operand.verified:
                continue
            operand.verified = True
            consumer.unverified -= 1
            if operand.correct:
                continue
            self._note_fault_detected(operand)
            # Misprediction: the correct value sits in the local physical
            # register (ready at the producer's completion); the consumer
            # reverts to a normal register read and reissues.
            operand.mode = MODE_LOCAL
            if consumer.state != STATE_WAITING:
                self._invalidate(consumer, cycle)

    def _deliver_mismatch(self, vcopy: Uop, cycle: int) -> None:
        """A verification-copy's mismatch forward arrives at the consumer.

        If the operand is already verified, a previous generation of
        this vcopy (invalidated and replayed after its source producer
        reissued) has already delivered the same final value — the
        replayed forward changes nothing and the consumer may even have
        committed meanwhile.
        """
        consumer = vcopy.consumer
        operand = vcopy.consumer_operand
        if operand.verified:
            return
        operand.mode = MODE_FWD
        operand.ready_override = cycle
        operand.verified = True
        consumer.unverified -= 1
        self._note_fault_detected(operand)
        if consumer.state != STATE_WAITING:
            self._invalidate(consumer, cycle)

    def _note_fault_detected(self, operand: Operand) -> None:
        """Report a caught injected corruption back to the harness."""
        if operand.injected and self._injector is not None:
            self._injector.note_value_detected()

    # --------------------------------------------------------- invalidation --

    def _invalidate(self, start: Uop, cycle: int) -> None:
        """Selective invalidation + reissue of a dependence cone (§2.2)."""
        stack = [start]
        while stack:
            uop = stack.pop()
            if uop.state == STATE_WAITING:
                continue
            if uop.state == STATE_COMMITTED:
                raise SimulationError(
                    f"attempted to invalidate committed uop {uop!r}")
            uop.generation += 1
            uop.state = STATE_WAITING
            uop.complete_cycle = None
            if cycle > uop.min_issue_cycle:
                uop.min_issue_cycle = cycle
            uop.reissue_count += 1
            self.stats.invalidations += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.counts[EV_SQUASH] += 1
                tracer.emit((cycle, EV_SQUASH, uop.order, uop.kind,
                             uop.cluster, uop.generation))
            if uop.dest_preg is not None:
                regfile = self.clusters[uop.dest_cluster].regfile
                regfile.set_pending(uop.dest_preg, uop)
            if uop.is_store:
                self._pending_store_addrs.add(uop.dyn.seq)
                stores = self._inflight_stores.get(uop.dyn.mem_addr)
                if stores and uop in stores:
                    stores.remove(uop)
            self.clusters[uop.cluster].iq_for(uop.int_side).reinsert(uop)
            readers = uop.readers
            uop.readers = []
            stack.extend(readers)

    # ---------------------------------------------------------------- commit --

    def _commit(self, cycle: int) -> None:
        rob = self.rob
        retired = 0
        budget = self.config.retire_width
        tracer = self._tracer
        clusters = self.clusters
        while rob and retired < budget:
            uop = rob[0]
            if (uop.state != STATE_DONE or uop.unverified > 0
                    or uop.complete_cycle >= cycle):
                break
            if uop.is_store:
                if self._dports_used >= self.config.dcache_ports:
                    break
                self._dports_used += 1
                self.memory.data_latency(uop.dyn.mem_addr, is_write=True)
                stores = self._inflight_stores.get(uop.dyn.mem_addr)
                if stores and uop in stores:
                    stores.remove(uop)
            rob.popleft()
            uop.state = STATE_COMMITTED
            retired += 1
            if uop.free_on_commit:
                # Free the previous mapping set (Figure 1): each register
                # returns to its pool and its scoreboard entry resets.
                renamer = self.renamer
                pregs_per_bank = renamer.pregs_per_bank
                for fcluster, fpreg in uop.free_on_commit:
                    bank, index = divmod(fpreg, pregs_per_bank)
                    allocated = renamer.allocated[fcluster][bank]
                    if not allocated[index]:
                        raise ValueError(
                            f"double free of physical register {index}")
                    allocated[index] = False
                    renamer.free[fcluster][bank].append(index)
                    regfile = clusters[fcluster].regfile
                    regfile.ready[fpreg] = NEVER
                    regfile.producer[fpreg] = None
                    # A reader older than this writer cannot still be
                    # parked here (it committed first), but wake
                    # defensively: a spurious rescan is harmless, a
                    # missed wake would hang the consumer.
                    waiters = regfile.waiters.pop(fpreg, None)
                    if waiters:
                        for waiter in waiters:
                            waiter.wake_cycle = 0
                            if waiter.iq is not None:
                                waiter.iq.next_try = 0
            if uop.dest_preg is not None:
                clusters[uop.dest_cluster].regfile.producer[
                    uop.dest_preg] = None
            uop.readers = []
            if tracer is not None:
                tracer.counts[EV_COMMIT] += 1
                tracer.emit((
                    cycle, EV_COMMIT, uop.order, uop.kind,
                    uop.dyn.seq if uop.dyn is not None else -1,
                    uop.cluster))
            if uop.kind == KIND_INST:
                self.stats.committed_insts += 1
                if self._golden is not None:
                    self._golden.on_commit(uop.dyn, cycle, uop.cluster)
            elif uop.kind == KIND_COPY:
                self.stats.committed_copies += 1
            else:
                self.stats.committed_vcopies += 1
        if retired:
            self.watchdog.note_commit(cycle)
        else:
            self.watchdog.check(cycle, self.pipeline_snapshot)

    # ----------------------------------------------------------------- issue --

    def _forwarding_store(self, uop: Uop) -> Optional[Uop]:
        """Latest earlier in-flight store to the load's address, if any.

        The returned store may still be awaiting its data (not DONE);
        the load must then wait — a read cannot bypass a same-address
        write whose value does not exist yet.
        """
        stores = self._inflight_stores.get(uop.dyn.mem_addr)
        if not stores:
            return None
        seq = uop.dyn.seq
        best = None
        for store in stores:
            if store.dyn.seq < seq and (
                    best is None or store.dyn.seq > best.dyn.seq):
                best = store
        return best

    def _drain_store_data(self, cycle: int) -> None:
        """Complete address-generated stores whose data value arrived."""
        still_waiting: List[Uop] = []
        for store in self._stores_awaiting_data:
            if store.state != STATE_ISSUED:
                continue  # invalidated; it will re-issue and re-enqueue
            operand = store.operands[0]
            mode = operand.mode
            if mode == MODE_LOCAL:
                ok = (self.clusters[store.cluster].regfile.ready[operand.preg]
                      <= cycle)
            elif mode == MODE_FWD:
                ok = operand.ready_override <= cycle
            else:
                ok = True  # MODE_PRED / MODE_ZERO
            if ok:
                self._complete(store, cycle)
            else:
                still_waiting.append(store)
        self._stores_awaiting_data = still_waiting

    def _issue(self, cycle: int) -> None:
        """Oldest-first issue over the per-cluster/per-side queues.

        Queues are scanned *batched*: each :class:`IssueQueue` carries a
        ``next_try`` lower bound on the earliest cycle any of its
        entries could issue, so a queue whose uops are all sleeping (or
        which is empty) costs one comparison per cycle instead of a
        linear rescan.  Within a scanned queue the entry walk, the issue
        attempts and their order are exactly the linear scan's, so the
        committed stream is bit-identical (golden co-sim verified; see
        tests/core/test_wake_invariant.py for the property test).

        The per-uop issue attempt (operand readiness, parking on the
        register-file waiter lists, per-kind resource checks) is inlined
        here: it runs several times per simulated instruction and the
        call overhead dominated the host profile.  Each visited uop ends
        with ``wake``, the earliest cycle it could issue, or 0 once it
        has issued.  An operand-blocked uop is parked with
        ``wake_cycle`` = a lower bound on its next possible issue cycle
        (finite scheduled ready cycles bound directly; unscheduled
        registers park it on the waiter list and ``set_ready`` lowers
        the bound later); a resource-blocked uop (width/FU capacity,
        D-cache port, interconnect path, load disambiguation) retries
        next cycle.  Parking consumes no shared resource, so it cannot
        perturb any other uop's issue.

        Functional-unit pools are reset lazily (first use per cycle):
        an idle cluster's pool costs nothing.
        """
        leftover_int: Optional[List[int]] = None
        leftover_fp: Optional[List[int]] = None
        stats = self.stats
        occupancy = stats.iq_occupancy_sum
        issued_per_cluster = stats.issued_per_cluster
        tracer = self._tracer
        events = self._events
        data_latency = self.memory.data_latency
        pending_stores = self._pending_store_addrs
        config = self.config
        free_copies = config.free_copy_issue
        dcache_ports = config.dcache_ports
        interconnect = self.interconnect
        n_clusters = config.n_clusters
        cycle1 = cycle + 1
        for cluster in self.clusters:
            cid = cluster.cluster_id
            iq_int = cluster.iq_int
            iq_fp = cluster.iq_fp
            occupancy[cid] += len(iq_int._entries) + len(iq_fp._entries)
            for queue in (iq_int, iq_fp):
                entries = queue._entries
                if not entries or queue.next_try > cycle:
                    continue
                int_side = queue is iq_int
                regfile = cluster.regfile
                ready = regfile.ready
                waiters = regfile.waiters
                producers = regfile.producer
                fupool = cluster.fupool
                if fupool._cycle != cycle:
                    fupool.begin_cycle(cycle)
                # Reset the bound before scanning: a uop issuing during
                # this scan can wake an already-visited entry of this
                # same queue (``set_ready`` lowers ``queue.next_try``
                # through the ``Uop.iq`` backref), so the bound we
                # recompute below must min-merge with whatever the wake
                # hooks left here, never overwrite it.
                queue.next_try = NEXT_TRY_IDLE
                bound = NEXT_TRY_IDLE
                # `kept` forks lazily off `entries` at the first issued
                # (dropped) uop; scans that issue nothing leave the
                # entry list untouched.
                kept: Optional[List[Uop]] = None
                for i, uop in enumerate(entries):
                    mi = uop.min_issue_cycle
                    wake = uop.wake_cycle
                    if uop.state != STATE_WAITING:
                        # Defensive (queues only hold WAITING uops in
                        # steady state): retry next cycle.
                        wake = cycle1
                    elif mi > cycle or wake > cycle:
                        if mi > wake:
                            wake = mi
                    else:
                        # ---- operand readiness (park when blocked) ----
                        # A store's address generation needs only the
                        # base operand (srcs are (value, base)); the data
                        # value is collected in the store queue
                        # afterwards (§2.4: "loads may execute when
                        # prior store addresses are known").
                        wake = 0
                        for operand in (uop.operands[1:] if uop.is_store
                                        else uop.operands):
                            mode = operand.mode
                            if mode == MODE_LOCAL:
                                preg = operand.preg
                                r = ready[preg]
                                if r > cycle:
                                    w = waiters.get(preg)
                                    if w is None:
                                        waiters[preg] = [uop]
                                    elif w[-1] is not uop:
                                        w.append(uop)
                                    if r > wake:
                                        wake = r
                            elif (mode == MODE_FWD
                                  and operand.ready_override > cycle
                                  and operand.ready_override > wake):
                                wake = operand.ready_override
                        if wake:
                            uop.wake_cycle = wake
                    if not wake:
                        # ---- per-kind resource checks ----
                        kind = uop.kind
                        if kind == KIND_INST:
                            if uop.is_load and (
                                    (pending_stores and min(pending_stores)
                                     <= uop.dyn.seq)
                                    or ((forward := self._forwarding_store(
                                        uop)) is not None
                                        and forward.state != STATE_DONE)
                                    or self._dports_used >= dcache_ports):
                                # An earlier store's unknown address
                                # (Table 1) / same-address store data /
                                # D-cache port.
                                wake = cycle1
                            elif not fupool.try_issue_desc(uop.fu):
                                wake = cycle1
                                if int_side:
                                    if leftover_int is None:
                                        leftover_int = [0] * n_clusters
                                    leftover_int[cid] += 1
                                else:
                                    if leftover_fp is None:
                                        leftover_fp = [0] * n_clusters
                                    leftover_fp[cid] += 1
                        elif kind == KIND_COPY:
                            if ((not free_copies
                                 and (fupool.int_width_left() if int_side
                                      else fupool.fp_width_left()) <= 0)
                                    or not interconnect.try_reserve(
                                        uop.dest_cluster, cycle1)):
                                wake = cycle1
                            elif not free_copies:
                                fupool.try_issue_copy(not int_side)
                        else:  # KIND_VCOPY
                            mismatch = not uop.consumer_operand.correct
                            if ((not free_copies
                                 and fupool.int_width_left() <= 0)
                                    or (mismatch
                                        and not interconnect.try_reserve(
                                            uop.consumer.cluster, cycle1))):
                                wake = cycle1
                            elif not free_copies:
                                fupool.try_issue_copy(False)
                    if wake:
                        if kept is not None:
                            kept.append(uop)
                        if wake < bound:
                            bound = wake
                        continue
                    # ---- issued: drop from the queue ----
                    if kept is None:
                        kept = entries[:i]
                    uop.state = STATE_ISSUED
                    stats.issued_uops += 1
                    issued_per_cluster[cid] += 1
                    if tracer is not None:
                        tracer.counts[EV_ISSUE] += 1
                        tracer.emit((cycle, EV_ISSUE, uop.order, kind, cid,
                                     uop.reissue_count))
                    # Register with the producers of local operands so
                    # the selective-reissue walk can find this uop while
                    # it can still be squashed.
                    for operand in uop.operands:
                        if operand.mode == MODE_LOCAL:
                            producer = producers[operand.preg]
                            if (producer is not None and producer is not uop
                                    and producer.state != STATE_COMMITTED):
                                producer.readers.append(uop)
                    if kind == KIND_COPY:
                        self._issue_copy(uop, cycle)
                        continue
                    if kind == KIND_VCOPY:
                        self._issue_vcopy(uop, cycle, mismatch)
                        continue
                    # -- an instruction: its latency, then the store
                    # queue or its destination register.
                    dyn = uop.dyn
                    when = cycle + uop.fu[3]  # descriptor's latency
                    if uop.is_load:
                        self._dports_used += 1
                        if forward is not None:
                            when += 1  # store buffer forward
                            forward.readers.append(uop)
                        else:
                            when += data_latency(dyn.mem_addr)
                    if uop.is_store:
                        self._pending_store_addrs.discard(dyn.seq)
                        inflight = self._inflight_stores
                        addr_stores = inflight.get(dyn.mem_addr)
                        if addr_stores is None:
                            inflight[dyn.mem_addr] = [uop]
                        else:
                            addr_stores.append(uop)
                        operand = uop.operands[0]
                        mode = operand.mode
                        if ((mode == MODE_LOCAL
                             and ready[operand.preg] > cycle)
                                or (mode == MODE_FWD
                                    and operand.ready_override > cycle)):
                            # Address generated; park until the data
                            # value arrives (drained once per cycle).
                            self._stores_awaiting_data.append(uop)
                            continue
                    else:
                        dest = uop.dest_preg
                        if dest is not None:
                            regfile.set_ready(dest, when)
                            producers[dest] = uop
                    event = (_EV_COMPLETE, uop, uop.generation)
                    queued = events.get(when)
                    if queued is None:
                        events[when] = [event]
                    else:
                        queued.append(event)
                if kept is not None:
                    queue._entries = kept
                if bound < queue.next_try:
                    queue.next_try = bound
        if ((leftover_int is None and leftover_fp is None)
                or self._one_cluster):
            # Nothing capacity-stuck, or no other cluster to take it:
            # NREADY contributes zero, so skip the idle capacities.
            self.nready.record_idle()
            return
        idle_int = []
        idle_fp = []
        for cluster in self.clusters:
            pool = cluster.fupool
            if pool._cycle != cycle:
                pool.begin_cycle(cycle)
            # Idle capacity per side: the remaining issue width,
            # bounded by the units left (never negative).
            width = pool.int_width - pool._int_issued
            units = pool.int_units - pool._idiv_busy_now - pool._int_units_used
            idle = width if width < units else units
            idle_int.append(idle if idle > 0 else 0)
            width = pool.fp_width - pool._fp_issued
            units = pool.fp_units - pool._fdiv_busy_now - pool._fp_units_used
            idle = width if width < units else units
            idle_fp.append(idle if idle > 0 else 0)
        zeros = [0] * n_clusters
        self.nready.record(leftover_int or zeros, idle_int,
                           leftover_fp or zeros, idle_fp)

    def _issue_copy(self, uop: Uop, cycle: int) -> None:
        """A copy drives the interconnect the cycle after it issues."""
        self.stats.communications += 1
        arrival = self.interconnect.arrival_cycle(cycle + 1)
        tracer = self._tracer
        if tracer is not None:
            tracer.counts[EV_COPY_SEND] += 1
            tracer.emit((cycle, EV_COPY_SEND, uop.order, uop.cluster,
                         uop.dest_cluster, arrival))
        remote = self.clusters[uop.dest_cluster].regfile
        remote.set_ready(uop.dest_preg, arrival)
        remote.producer[uop.dest_preg] = uop
        self._schedule(arrival, (_EV_COMPLETE, uop, uop.generation))

    def _issue_vcopy(self, uop: Uop, cycle: int, mismatch: bool) -> None:
        """Local compare; forward (and reissue the consumer) on mismatch."""
        tracer = self._tracer
        if tracer is not None:
            tracer.counts[EV_VCOPY_VERIFY] += 1
            tracer.emit((cycle, EV_VCOPY_VERIFY, uop.order, uop.cluster,
                         not mismatch))
        if mismatch:
            self.stats.communications += 1
            self.stats.mismatch_forwards += 1
            arrival = self.interconnect.arrival_cycle(cycle + 1)
            self._schedule(arrival, (_EV_VDELIVER, uop, uop.generation))
        self._schedule(cycle + 1, (_EV_COMPLETE, uop, uop.generation))

    # ---------------------------------------------------------------- decode --

    def _decode(self, cycle: int) -> None:
        """Dispatch up to ``decode_width`` fetched instructions in order.

        Decoding stops at the first instruction that cannot dispatch
        this cycle, and its stall cause is counted.
        """
        buffer = self.fetch._buffer
        rob = self.rob
        rob_size = self.config.rob_size
        templates = self._templates
        decode_one = (self._decode_local if self._one_cluster
                      else self._decode_one)
        for _ in range(self.config.decode_width):
            if not buffer:
                return
            fetched = buffer[0]
            if fetched.fetch_cycle >= cycle:
                return
            if len(rob) >= rob_size:
                # Any dispatch needs at least one ROB slot, whatever
                # cluster steering would pick: stall before paying for
                # prediction and steering work that cannot be used this
                # cycle.
                stall = "rob"
            else:
                static = fetched.dyn.static
                template = templates.get(static)
                if template is None:
                    template = templates[static] = _Template(
                        static, self.vp if self._vp_enabled else None,
                        self.clusters[0].fupool)
                stall = decode_one(fetched, template, cycle)
            if stall is not None:
                stalls = self.stats.decode_stalls
                stalls[stall] = stalls.get(stall, 0) + 1
                return
            buffer.popleft()

    def _predictions(self, fetched: FetchedInst, template: _Template):
        """Per-slot value predictions: None or (value, correct, injected).

        Made once per fetched instruction and kept on it: stall retries
        reuse them, so predictor state and the accuracy stats advance
        once per instruction.  *injected* marks a prediction corrupted
        by the fault harness.
        """
        predictions = fetched.predictions
        if predictions is not None:
            return predictions
        predictions = template.unpredicted
        if template.predictors:
            predictions = list(predictions)
            injector = self._injector
            dyn = fetched.dyn
            src_values = dyn.src_values
            for slot, predict in template.predictors:
                actual = src_values[slot]
                value, confident = predict(actual)
                if not confident:
                    continue
                injected = False
                if injector is not None:
                    corrupted = injector.corrupt_prediction(
                        dyn.static.pc, slot, actual)
                    if corrupted is not None:
                        value, injected = corrupted, True
                predictions[slot] = (value, value == actual, injected)
        fetched.predictions = predictions
        return predictions

    def _source_views(self, template: _Template, predictions,
                      cycle: int) -> List[tuple]:
        """Steering's decode-time view of each source operand (§2.3.1).

        Plain :class:`~repro.steering.SourceView` tuples.  Mapped clusters
        come from the rename unit's caches; a single-mapped operand (the
        overwhelmingly common case) needs no soonest-cluster tournament.
        """
        renamer = self.renamer
        mapped_lists = renamer.mapped_lists
        mapped_sets = renamer.mapped_sets
        map_rows = renamer.rows
        ready_arrays = self._ready_arrays
        views = []
        for slot, logical, fp in template.sources:
            if logical == ZERO_REG:
                views.append(_ZERO_VIEW)
                continue
            mapped = mapped_lists[logical]
            if mapped is None:
                mapped = renamer.mapped_clusters(logical)
            mapped_set = mapped_sets[logical]
            if mapped_set is None:
                mapped_set = renamer.mapped_set(logical)
            row = map_rows[logical]
            if len(mapped) == 1:
                best = mapped[0]
                best_ready = ready_arrays[best][row[best]]
            else:
                best = None
                best_ready = NEVER + 1
                for cluster_id in mapped:
                    preg = row[cluster_id]
                    ready = ready_arrays[cluster_id][preg]
                    if ready < best_ready:
                        best_ready = ready
                        best = cluster_id
                    elif ready == best_ready and ready >= NEVER:
                        # Tie between unscheduled producers: prefer the
                        # defining instruction's cluster over an
                        # unissued copy's target.
                        producer = (
                            self.clusters[cluster_id].regfile.producer[preg])
                        if producer is not None and producer.kind == KIND_INST:
                            best = cluster_id
            views.append((best_ready <= cycle, mapped_set, best,
                          predictions[slot] is not None))
        return views

    def _decode_one(self, fetched: FetchedInst, template: _Template,
                    cycle: int) -> Optional[str]:
        """Predict, steer, plan and dispatch one instruction.

        Returns the stall cause when it cannot dispatch this cycle.
        The operand plan (§2.1/§2.2) gives each source a shared register
        read, a local speculation the producer verifies, a copy, or a
        remote speculation a verification-copy verifies.  ``specials``
        lists the rest of the rename work in slot order, as (speculative
        operand or None, slot, logical, fp, source cluster); a copy's
        slot stays None until dispatch allocates its replica, and a
        second read of a copied register has no source cluster.
        """
        pc = fetched.dyn.static.pc
        predictions = self._predictions(fetched, template)
        views = self._source_views(template, predictions, cycle)
        cluster_id = self.steerer.choose(views, self.dcount, pc)
        if self._injector is not None:
            cluster_id = self._injector.flip_steering(
                cluster_id, self.config.n_clusters, pc)
        map_rows = self.renamer.rows
        ready = self._ready_arrays[cluster_id]
        clusters = self.clusters
        local = self._local_operands
        operands = []
        specials = None
        copied = None               # logical registers copied so far
        helper_queues = None        # issue queue of each (v)copy
        for slot, logical, fp in template.sources:
            if logical == ZERO_REG:
                operands.append(self._zero_operand)
                continue
            prediction = predictions[slot]
            preg = map_rows[logical][cluster_id]
            if preg is not None:
                if prediction is None or ready[preg] <= cycle:
                    operands.append(local[preg])
                    continue
                # §2.2: source not yet available and confident ->
                # dispatch speculatively; the producer verifies.
                operand = Operand(MODE_PRED, preg, prediction[1],
                                  prediction[2])
                src_cluster = cluster_id
            elif copied is not None and logical in copied:
                # Same logical register twice: one copy serves both.
                operand = src_cluster = None
            else:
                src_cluster = views[slot][2]    # soonest_cluster
                source = clusters[src_cluster]
                if prediction is not None:
                    # §2.2 extension: operand not mapped here -> predict
                    # it regardless of availability, verify with a vcopy.
                    operand = Operand(MODE_PRED, None, prediction[1],
                                      prediction[2])
                    queue = source.iq_int
                else:
                    operand = None
                    queue = source.iq_fp if fp else source.iq_int
                    if copied is None:
                        copied = []
                    copied.append(logical)
                if helper_queues is None:
                    helper_queues = []
                helper_queues.append(queue)
            operands.append(operand)
            if specials is None:
                specials = []
            specials.append((operand, slot, logical, fp, src_cluster))
        cluster = clusters[cluster_id]
        own_queue = cluster.iq_int if template.int_side else cluster.iq_fp
        if helper_queues is not None:
            stall = self._check_resources(template, cluster_id, specials,
                                          [own_queue] + helper_queues)
            if stall is not None:
                return stall
        else:
            if (template.dest is not None
                    and not self.renamer.free[cluster_id][
                        template.dest_bank]):
                return "pregs"
            if len(own_queue._entries) >= own_queue.capacity:
                return "iq"
        self._dispatch(fetched, template, cluster_id, operands, specials,
                       cycle)
        return None

    def _decode_local(self, fetched: FetchedInst, template: _Template,
                      cycle: int) -> Optional[str]:
        """:meth:`_decode_one` for a one-cluster machine.

        Every operand is mapped in the only cluster, so there are no
        steering views, no steering decision and no copies: each
        source reads its local register or speculates on a prediction.
        """
        predictions = self._predictions(fetched, template)
        map_rows = self.renamer.rows
        ready = self._ready_arrays[0]
        local = self._local_operands
        operands = []
        specials = None
        for slot, logical, fp in template.sources:
            if logical == ZERO_REG:
                operands.append(self._zero_operand)
                continue
            preg = map_rows[logical][0]
            prediction = predictions[slot]
            if prediction is None or ready[preg] <= cycle:
                operands.append(local[preg])
                continue
            operand = Operand(MODE_PRED, preg, prediction[1],
                              prediction[2])
            operands.append(operand)
            if specials is None:
                specials = []
            specials.append((operand, slot, logical, fp, 0))
        if (template.dest is not None
                and not self.renamer.free[0][template.dest_bank]):
            return "pregs"
        cluster = self.clusters[0]
        queue = cluster.iq_int if template.int_side else cluster.iq_fp
        if len(queue._entries) >= queue.capacity:
            return "iq"
        if self._tracer is not None:
            # The decision is trivial; the steerer is asked only for
            # the reason the steer event reports.
            self.steerer.choose(
                self._source_views(template, predictions, cycle),
                self.dcount, fetched.dyn.static.pc)
        self._dispatch(fetched, template, 0, operands, specials, cycle)
        return None

    def _check_resources(self, template: _Template, cluster_id: int,
                         specials: list, queues: list) -> Optional[str]:
        """Stall cause when the instruction and its (v)copies do not fit.

        *queues* holds the issue queue of the instruction and of each
        copy and verification-copy.
        """
        if len(self.rob) + len(queues) > self.config.rob_size:
            return "rob"
        # Free physical registers, per bank, in the consumer cluster
        # (copy replicas land there too).
        needed = [0, 0]
        if template.dest is not None:
            needed[template.dest_bank] += 1
        for operand, _, _, fp, src_cluster in specials:
            if operand is None and src_cluster is not None:
                needed[FP_BANK if fp else INT_BANK] += 1
        free = self.renamer.free[cluster_id]
        if (len(free[INT_BANK]) < needed[INT_BANK]
                or len(free[FP_BANK]) < needed[FP_BANK]):
            return "pregs"
        # Issue-queue space: the instruction in its cluster/side, each
        # (v)copy in its source cluster on the value's side.
        for queue in queues:
            if queue.capacity - len(queue._entries) < queues.count(queue):
                return "iq"
        return None

    def _dispatch(self, fetched: FetchedInst, template: _Template,
                  cluster_id: int, operands: list,
                  specials: Optional[list], cycle: int) -> None:
        """Rename and dispatch a planned instruction and its helpers."""
        dyn = fetched.dyn
        min_issue = cycle + 1 + self.config.extra_rename_cycles
        uop = Uop(KIND_INST, dyn, 0, cluster_id, template.int_side,
                  template.fu, operands, min_issue)
        uop.mispredicted_branch = fetched.mispredicted
        stats = self.stats
        clusters = self.clusters
        renamer = self.renamer
        map_rows = renamer.rows
        local = self._local_operands
        helpers = None
        # The rename work planned at decode, in slot order: speculative
        # operands are verified by their producer (local) or by a
        # verification-copy (remote); copies get their replica here.
        for operand, slot, logical, fp, src_cluster in specials or ():
            if operand is not None:     # MODE_PRED
                if operand.injected:
                    self._injector.note_value_injected(dyn.static.pc, slot)
                stats.speculative_operands += 1
                if not operand.correct:
                    stats.mispredicted_operands += 1
                if self._oracle:
                    operand.verified = True
                    continue
                uop.unverified += 1
                if operand.preg is not None:
                    self._register_verification(cluster_id, operand.preg,
                                                uop, operand, cycle)
                    continue
                helper = Uop(KIND_VCOPY, dyn, 0, src_cluster, True, None,
                             [local[map_rows[logical][src_cluster]]],
                             min_issue)
                helper.consumer = uop
                helper.consumer_operand = operand
                stats.dispatched_vcopies += 1
            elif src_cluster is None:
                # Second read of a register this instruction copies:
                # share the replica.
                operands[slot] = local[map_rows[logical][cluster_id]]
                continue
            else:
                helper = Uop(KIND_COPY, dyn, 0, src_cluster, not fp, None,
                             [local[map_rows[logical][src_cluster]]],
                             min_issue)
                replica = renamer.alloc_replica(
                    logical, cluster_id, FP_BANK if fp else INT_BANK)
                operands[slot] = local[replica]
                helper.dest_preg = replica
                helper.dest_cluster = cluster_id
                clusters[cluster_id].regfile.set_pending(replica, helper)
                stats.dispatched_copies += 1
            if helpers is None:
                helpers = []
            helpers.append(helper)
        # Destination rename (Figure 1): a free register of the bank
        # becomes the only valid mapping, and the previous mapping set
        # is freed when this instruction commits.
        dest = template.dest
        if dest is not None:
            bank = template.dest_bank
            index = renamer.free[cluster_id][bank].popleft()
            renamer.allocated[cluster_id][bank][index] = True
            preg = index + bank * renamer.pregs_per_bank
            row = map_rows[dest]
            previous = []
            for c, mapped in enumerate(row):
                if mapped is not None:
                    previous.append((c, mapped))
                    row[c] = None
            row[cluster_id] = preg
            renamer.mapped_lists[dest] = renamer.single_lists[cluster_id]
            renamer.mapped_sets[dest] = renamer.single_sets[cluster_id]
            uop.dest_preg = preg
            uop.dest_cluster = cluster_id
            uop.free_on_commit = previous
            self._ready_arrays[cluster_id][preg] = NEVER
            clusters[cluster_id].regfile.producer[preg] = uop
        # Helpers precede the instruction in dispatch (and ROB) order.
        # Dispatch order is age order: a uop enters its issue queue at
        # the end, and lowers the queue's next_try bound to its own
        # earliest issue cycle.
        tracer = self._tracer
        next_order = self._next_order
        rob_append = self.rob.append
        if helpers is not None:
            for helper in helpers:
                helper.order = next_order
                next_order += 1
                rob_append(helper)
                hcluster = clusters[helper.cluster]
                queue = hcluster.iq_int if helper.int_side else hcluster.iq_fp
                helper.iq = queue
                queue._entries.append(helper)
                if min_issue < queue.next_try:
                    queue.next_try = min_issue
                if tracer is not None:
                    static = dyn.static
                    tracer.counts[EV_DISPATCH] += 1
                    tracer.emit((cycle, EV_DISPATCH, helper.order,
                                 helper.kind, dyn.seq, static.pc,
                                 helper.cluster, static.op.name,
                                 fetched.fetch_cycle))
        uop.order = next_order
        self._next_order = next_order + 1
        rob_append(uop)
        cluster = clusters[cluster_id]
        queue = cluster.iq_int if uop.int_side else cluster.iq_fp
        uop.iq = queue
        queue._entries.append(uop)
        if min_issue < queue.next_try:
            queue.next_try = min_issue
        if tracer is not None:
            static = dyn.static
            counts = tracer.counts
            emit = tracer.emit
            counts[EV_FETCH] += 1
            emit((fetched.fetch_cycle, EV_FETCH, dyn.seq, static.pc))
            counts[EV_STEER] += 1
            emit((cycle, EV_STEER, dyn.seq, cluster_id,
                  self.steerer.last_reason))
            counts[EV_DISPATCH] += 1
            emit((cycle, EV_DISPATCH, uop.order, KIND_INST, dyn.seq,
                  static.pc, cluster_id, static.op.name,
                  fetched.fetch_cycle))
        if uop.is_store:
            self._pending_store_addrs.add(dyn.seq)
        self.dcount.dispatch(cluster_id)
        stats.dispatched_insts += 1
        stats.dispatch_per_cluster[cluster_id] += 1

    def _register_verification(self, cluster_id: int, preg: int,
                               consumer: Uop, operand: Operand,
                               cycle: int) -> None:
        """Attach a local prediction to its producer for writeback checks."""
        producer = self.clusters[cluster_id].regfile.producer[preg]
        if producer is None or producer.state == STATE_COMMITTED:
            # The value became architectural between the view and now;
            # the speculation trivially verifies against a final value.
            operand.verified = True
            consumer.unverified -= 1
            if not operand.correct:
                self._note_fault_detected(operand)
                operand.mode = MODE_LOCAL
            return
        producer.verify_list = producer.verify_list or []
        producer.verify_list.append((consumer, operand))
        if producer.state == STATE_DONE:
            # Completed this very cycle before we registered: schedule
            # the verification ourselves.
            self._schedule(max(cycle + 1, producer.complete_cycle + 1),
                           (_EV_VERIFY, producer, producer.generation))
