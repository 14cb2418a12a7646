"""The Oracle profiler: the golden reference (Section 2.2).

Oracle attributes *every* clock cycle to the instruction(s) whose latency
the processor exposes in that cycle, using the four commit-stage states of
Figure 3:

* **Computing** -- one or more instructions commit: attribute ``1/n``
  cycles to each of the ``n`` committing instructions.
* **Stalled** -- the ROB is non-empty but nothing commits: attribute the
  cycle to the instruction at the head of the ROB.
* **Flushed** -- the ROB is empty because of misspeculation or an
  exception: attribute the cycle to the instruction that emptied the ROB
  (mispredicted branch, flushing CSR, or excepting instruction).
* **Drained** -- the ROB is empty because the front-end is not supplying
  instructions: attribute the cycle to the first instruction that enters
  the ROB after the stall (resolved retroactively).

Besides the full per-instruction time profile and per-category cycle
stacks (Figure 7/13), Oracle can *watch* sampling schedules: for each
sample point it records both the golden attribution of the sampled cycle
and the golden attribution of the whole interval the sample represents.
The error metric (Section 4) judges every practical profiler's sample
against the latter: a sample stands for the entire period since the
previous sample, so even a profiler that matches Oracle cycle-for-cycle
retains *unsystematic* error that shrinks as the sampling frequency
rises.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..cpu.trace import CycleRecord, TraceObserver
from ..isa.program import Program
from .samples import Attribution, Category, FlushKind, stall_category
from .sampling import SampleSchedule

#: OIR flag values (mirrors TIP's 3-bit OIR flags).
_FLAG_NONE = 0
_FLAG_MISPREDICT = 1
_FLAG_FLUSH = 2
_FLAG_EXCEPTION = 3

#: Trace wire-format flag bits (mirrors ``repro.cpu.tracefile``), used
#: by the vectorized block loop to read optional columns in place.
_WIRE_EMPTY = 1 << 0
_WIRE_EXC = 1 << 1
_WIRE_ORD = 1 << 2
_WIRE_HEAD = 1 << 4
#: flags byte -> number of optional u64s per record (wire order).
_WIRE_NOPT = tuple(bin(f & 0b11010).count("1") for f in range(256))

#: Repeated ``+= 1.0`` equals one ``+= count`` only below 2**53.
_EXACT_LIMIT = float(1 << 53)

#: Key identifying a sampling schedule: (period, mode, seed).
ScheduleKey = Tuple[int, str, int]

def schedule_key(schedule: SampleSchedule) -> ScheduleKey:
    return (schedule.period, schedule.mode, schedule.seed)


class _IntervalAccumulator:
    """Accumulates golden attribution between consecutive sample points."""

    __slots__ = ("schedule", "current", "intervals")

    def __init__(self, schedule: SampleSchedule):
        self.schedule = schedule
        self.current: Dict[int, float] = {}
        #: sample cycle -> (addr -> golden cycles within the interval).
        self.intervals: Dict[int, Dict[int, float]] = {}

    def add(self, cycle: int, weights: Attribution) -> None:
        current = self.current
        for addr, weight in weights:
            current[addr] = current.get(addr, 0.0) + weight
        if self.schedule.is_sample(cycle):
            self.intervals[cycle] = current
            self.current = {}


class OracleReport:
    """Everything Oracle learned about a run."""

    def __init__(self):
        #: addr -> attributed cycles.
        self.profile: Dict[int, float] = {}
        #: (addr, category) -> attributed cycles.
        self.categorized: Dict[Tuple[int, Category], float] = {}
        #: category -> total cycles.
        self.category_totals: Dict[Category, float] = {}
        #: fine-grained flush breakdown (paper: "more fine-grained
        #: categories"): FlushKind -> attributed cycles.
        self.flush_breakdown: Dict[FlushKind, float] = {}
        #: sample cycle -> golden attribution of that exact cycle.
        self.watched: Dict[int, Tuple[Attribution, Category]] = {}
        #: schedule key -> sample cycle -> golden interval attribution.
        self.intervals: Dict[ScheduleKey, Dict[int, Dict[int, float]]] = {}
        self.total_cycles = 0

    def add(self, addr: int, weight: float, category: Category,
            flush_kind: Optional[FlushKind] = None) -> None:
        self.profile[addr] = self.profile.get(addr, 0.0) + weight
        key = (addr, category)
        self.categorized[key] = self.categorized.get(key, 0.0) + weight
        self.category_totals[category] = \
            self.category_totals.get(category, 0.0) + weight
        if flush_kind is not None:
            self.flush_breakdown[flush_kind] = \
                self.flush_breakdown.get(flush_kind, 0.0) + weight

    def interval_for(self, key: ScheduleKey,
                     cycle: int) -> Optional[Dict[int, float]]:
        per_cycle = self.intervals.get(key)
        if per_cycle is None:
            return None
        return per_cycle.get(cycle)

    def normalized_profile(self) -> Dict[int, float]:
        """Profile as fraction of total attributed time."""
        total = sum(self.profile.values())
        if not total:
            return {}
        return {addr: t / total for addr, t in self.profile.items()}


#: Dense small-int codes for the category/flush enums -- the fast path
#: accumulates against these instead of hashing enum members per weight.
_CATEGORIES = tuple(Category)
_CAT_CODE = {category: code for code, category in enumerate(_CATEGORIES)}
_FLUSH_KINDS = tuple(FlushKind)
_FLUSH_CODE = {kind: code for code, kind in enumerate(_FLUSH_KINDS)}
#: Categorized-scratch keys pack ``slot * _CAT_STRIDE + cat_code``.
_CAT_STRIDE = len(_CATEGORIES)


class _FastAccumulator:
    """Interned, list-backed attribution scratch (block fast path).

    ``report.add`` pays enum hashing, a float box and a ``get`` default
    per table per weight.  The fast path interns each address (and each
    ``(addr, category)`` pair, packed as one int) into a slot index
    once and accumulates into plain float lists, converting back into
    the report's dict tables in one pass at flush time.  Per-slot
    accumulation happens in the same cycle order as ``report.add``
    would apply it and each slot folds into an absent (0.0) dict entry,
    so flushed totals are bit-identical to the cycle engine's.
    """

    __slots__ = ("profile_slot", "profile_addr", "profile_acc",
                 "cat_slot", "cat_code", "cat_acc", "totals", "flush")

    def __init__(self):
        self.profile_slot: Dict[int, int] = {}
        self.profile_addr: List[int] = []
        self.profile_acc: List[float] = []
        self.cat_slot: Dict[int, int] = {}
        self.cat_code: List[int] = []
        self.cat_acc: List[float] = []
        self.totals = [0.0] * len(_CATEGORIES)
        self.flush = [0.0] * len(_FLUSH_KINDS)

    def add(self, addr: int, weight: float, cat_code: int,
            flush_code: int = -1) -> None:
        slot = self.profile_slot.get(addr)
        if slot is None:
            slot = self.profile_slot[addr] = len(self.profile_acc)
            self.profile_addr.append(addr)
            self.profile_acc.append(0.0)
        self.profile_acc[slot] += weight
        key = slot * _CAT_STRIDE + cat_code
        cslot = self.cat_slot.get(key)
        if cslot is None:
            cslot = self.cat_slot[key] = len(self.cat_acc)
            self.cat_code.append(key)
            self.cat_acc.append(0.0)
        self.cat_acc[cslot] += weight
        self.totals[cat_code] += weight
        if flush_code >= 0:
            self.flush[flush_code] += weight

    def add_run(self, addr: int, count: int, cat_code: int,
                flush_code: int = -1) -> None:
        """Accumulate *count* unit weights in one step when provably
        exact.

        A batched ``+= count`` is bit-identical to *count* repeated
        ``+= 1.0`` exactly when every touched cell holds an integral
        float and the result stays below 2**53 (integers are closed
        under float addition in that range).  A cell can be fractional
        when its address also collected ``1/n`` EXECUTION shares; the
        run then falls back to the per-unit loop.
        """
        slot = self.profile_slot.get(addr)
        if slot is None:
            slot = self.profile_slot[addr] = len(self.profile_acc)
            self.profile_addr.append(addr)
            self.profile_acc.append(0.0)
        key = slot * _CAT_STRIDE + cat_code
        cslot = self.cat_slot.get(key)
        if cslot is None:
            cslot = self.cat_slot[key] = len(self.cat_acc)
            self.cat_code.append(key)
            self.cat_acc.append(0.0)
        p = self.profile_acc[slot]
        c = self.cat_acc[cslot]
        t = self.totals[cat_code]
        f = self.flush[flush_code] if flush_code >= 0 else 0.0
        limit = _EXACT_LIMIT - count
        if p.is_integer() and c.is_integer() and t.is_integer() \
                and f.is_integer() and p <= limit and c <= limit \
                and t <= limit and f <= limit:
            fcount = float(count)
            self.profile_acc[slot] = p + fcount
            self.cat_acc[cslot] = c + fcount
            self.totals[cat_code] = t + fcount
            if flush_code >= 0:
                self.flush[flush_code] = f + fcount
            return
        add = self.add
        for _ in range(count):
            add(addr, 1.0, cat_code, flush_code)

    def flush_into(self, report: "OracleReport") -> None:
        """Fold the scratch into *report* and zero it for reuse."""
        profile = report.profile
        addrs = self.profile_addr
        acc = self.profile_acc
        for slot, addr in enumerate(addrs):
            profile[addr] = profile.get(addr, 0.0) + acc[slot]
            acc[slot] = 0.0
        categorized = report.categorized
        cat_acc = self.cat_acc
        for cslot, packed in enumerate(self.cat_code):
            key = (addrs[packed // _CAT_STRIDE],
                   _CATEGORIES[packed % _CAT_STRIDE])
            categorized[key] = categorized.get(key, 0.0) + cat_acc[cslot]
            cat_acc[cslot] = 0.0
        totals = report.category_totals
        for code, value in enumerate(self.totals):
            if value:
                category = _CATEGORIES[code]
                totals[category] = totals.get(category, 0.0) + value
                self.totals[code] = 0.0
        breakdown = report.flush_breakdown
        for code, value in enumerate(self.flush):
            if value:
                kind = _FLUSH_KINDS[code]
                breakdown[kind] = breakdown.get(kind, 0.0) + value
                self.flush[code] = 0.0


class OracleProfiler(TraceObserver):
    """Cycle-exact time-proportional attribution over the commit trace.

    Attribution is emitted strictly in cycle order (front-end drains delay
    emission until the drain resolves, but nothing can be attributed in
    between), which lets the interval accumulators see a clean stream.
    """

    def __init__(self, program: Program,
                 watch_cycles: Optional[Iterable[int]] = None,
                 watch_schedules: Optional[List[SampleSchedule]] = None):
        self.program = program
        self.report = OracleReport()
        self._watch = set(watch_cycles or ())
        self._watch_markers = []  # schedules marking per-cycle watches
        self._accumulators: List[_IntervalAccumulator] = []
        for schedule in watch_schedules or ():
            self._watch_markers.append(schedule.clone())
            accumulator = _IntervalAccumulator(schedule.clone())
            self._accumulators.append(accumulator)
            self.report.intervals[schedule_key(schedule)] = \
                accumulator.intervals
        # OIR mirror: address + flags of the most recent committing or
        # excepting instruction.
        self._oir_addr: Optional[int] = None
        self._oir_flag = _FLAG_NONE
        self._oir_kind: Optional[FlushKind] = None
        # Cycles waiting for the end of a front-end drain.
        self._pending_drain: List[int] = []
        # The block fast path bypasses watch bookkeeping entirely, so
        # it is only safe when no watches were requested.
        self._fast: Optional[_FastAccumulator] = None
        if not self._watch and not self._accumulators:
            self._fast = _FastAccumulator()
        # addr -> category code, memoizing stall_category lookups.
        self._stall_codes: Dict[int, int] = {}
        # addr -> Category, the watch-mode twin of ``_stall_codes``.
        self._stall_cats: Dict[int, Category] = {}

    # -- trace consumption ---------------------------------------------------------

    def on_cycle(self, record: CycleRecord) -> None:
        cycle = record.cycle
        for marker in self._watch_markers:
            if marker.is_sample(cycle):
                self._watch.add(cycle)

        # A drain ends when the first instruction enters the ROB.
        if self._pending_drain and record.dispatched:
            self._resolve_drain(record.dispatched[0])

        if record.exception is not None:
            # The core is about to trigger an exception: the empty-ROB
            # cycles that follow belong to the excepting instruction.
            self._oir_addr = record.exception
            self._oir_flag = _FLAG_EXCEPTION
            self._oir_kind = (FlushKind.ORDERING
                              if record.exception_is_ordering
                              else FlushKind.EXCEPTION)
            self._emit(cycle, [(record.exception, 1.0)],
                       Category.MISC_FLUSH, self._oir_kind)
            return

        if record.committed:
            share = 1.0 / len(record.committed)
            weights = [(c.addr, share) for c in record.committed]
            self._emit(cycle, weights, Category.EXECUTION)
            youngest = record.committed[-1]
            self._oir_addr = youngest.addr
            if youngest.mispredicted:
                self._oir_flag = _FLAG_MISPREDICT
                self._oir_kind = FlushKind.MISPREDICT
            elif youngest.flushes:
                self._oir_flag = _FLAG_FLUSH
                self._oir_kind = FlushKind.CSR
            else:
                self._oir_flag = _FLAG_NONE
                self._oir_kind = None
            return

        if not record.rob_empty:
            category = stall_category(self.program, record.rob_head)
            self._emit(cycle, [(record.rob_head, 1.0)], category)
            return

        # Empty ROB: flushed if the OIR carries a flush reason, else a
        # front-end drain resolved at the next dispatch.
        if self._oir_flag == _FLAG_MISPREDICT:
            self._emit(cycle, [(self._oir_addr, 1.0)],
                       Category.MISPREDICT, self._oir_kind)
        elif self._oir_flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
            self._emit(cycle, [(self._oir_addr, 1.0)],
                       Category.MISC_FLUSH, self._oir_kind)
        else:
            self._pending_drain.append(cycle)

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        """Batched attribution of *count* identical stall cycles.

        The classification of a stall record (constant head-of-ROB
        stall, flush penalty, or front-end drain) cannot change within
        the run -- the OIR mirror only moves on commits and exceptions,
        which a stall record has none of -- so it is computed once.
        Weights still accumulate cycle by cycle in run order, keeping
        floating-point results bit-identical to single-stepping.
        """
        if record.committed or record.exception is not None \
                or record.dispatched:
            # Not a pure stall record; take the per-cycle default.
            TraceObserver.on_stall_run(self, record, count)
            return
        cycle = record.cycle
        fast = self._fast
        if not record.rob_empty:
            head = record.rob_head
            if fast is not None:
                code = self._stall_codes.get(head)
                if code is None:
                    code = _CAT_CODE[stall_category(self.program, head)]
                    self._stall_codes[head] = code
                fast.add_run(head, count, code)
                return
            category = stall_category(self.program, head)
            weights = [(head, 1.0)]
            for offset in range(count):
                c = cycle + offset
                self._advance_watch(c)
                self._emit(c, weights, category)
            return

        if self._oir_flag == _FLAG_MISPREDICT:
            category = Category.MISPREDICT
        elif self._oir_flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
            category = Category.MISC_FLUSH
        else:
            # Front-end drain: park every cycle of the run until the
            # next dispatch resolves it.
            if fast is None:
                for offset in range(count):
                    self._advance_watch(cycle + offset)
            self._pending_drain.extend(range(cycle, cycle + count))
            return
        addr = self._oir_addr
        kind = self._oir_kind
        if fast is not None:
            fast.add_run(addr, count, _CAT_CODE[category],
                         _FLUSH_CODE[kind])
            return
        weights = [(addr, 1.0)]
        for offset in range(count):
            c = cycle + offset
            self._advance_watch(c)
            self._emit(c, weights, category, kind)

    def _advance_watch(self, cycle: int) -> None:
        for marker in self._watch_markers:
            if marker.is_sample(cycle):
                self._watch.add(cycle)

    def on_block(self, block) -> None:
        """Vectorized columnar attribution (the fast, watch-free path).

        Instead of classifying every record, the loop classifies *runs*:
        a maximal span of commit-less, exception-free records with a
        uniform empty bit is located by C-speed ``find`` scans over the
        flag masks and one ``bisect`` over the commit prefix sums, then
        attributed with a single batched :meth:`_FastAccumulator.
        add_run`.  Runs are additionally cut at the next dispatching
        record whenever that dispatch would resolve a pending front-end
        drain (so emission order -- and therefore floating-point
        summation order -- matches the cycle engine exactly).
        """
        if self._fast is None:
            self._on_block_watch(block)
            return
        fast = self._fast
        add = fast.add
        add_run = fast.add_run
        start = block.start_cycle
        n = block.n
        cb = block.commit_base
        ca = block.commit_addr
        cm = block.commit_meta
        db = block.disp_base
        da = block.disp_addr
        flags_b = block.flags_bytes
        exc_mask = block.exc_mask
        rob_empty = block.rob_empty
        opt_vals = block.opt_vals
        opt_base = block.opt_base
        program = self.program
        stall_codes = self._stall_codes
        pending = self._pending_drain
        execution = _CAT_CODE[Category.EXECUTION]
        mispredict = _CAT_CODE[Category.MISPREDICT]
        misc_flush = _CAT_CODE[Category.MISC_FLUSH]
        flush_code = _FLUSH_CODE
        i = 0
        while i < n:
            if pending and db[i + 1] > db[i]:
                self._resolve_drain(da[db[i]])
            if exc_mask[i]:
                f = flags_b[i]
                exc = opt_vals[opt_base[i] + ((f >> 4) & 1)]
                self._oir_addr = exc
                self._oir_flag = _FLAG_EXCEPTION
                self._oir_kind = (FlushKind.ORDERING if f & _WIRE_ORD
                                  else FlushKind.EXCEPTION)
                add(exc, 1.0, misc_flush, flush_code[self._oir_kind])
                i += 1
                continue
            lo, hi = cb[i], cb[i + 1]
            if hi > lo:
                if hi - lo == 1:
                    add(ca[lo], 1.0, execution)
                else:
                    share = 1.0 / (hi - lo)
                    for k in range(lo, hi):
                        add(ca[k], share, execution)
                self._oir_addr = ca[hi - 1]
                meta = cm[hi - 1]
                if meta & 0x40:
                    self._oir_flag = _FLAG_MISPREDICT
                    self._oir_kind = FlushKind.MISPREDICT
                elif meta & 0x80:
                    self._oir_flag = _FLAG_FLUSH
                    self._oir_kind = FlushKind.CSR
                else:
                    self._oir_flag = _FLAG_NONE
                    self._oir_kind = None
                i += 1
                continue
            # Record i commits nothing and has no exception: find the
            # end of the maximal run that classifies like it.  The OIR
            # mirror cannot move inside such a run.
            empty = rob_empty[i]
            t = exc_mask.find(1, i + 1)
            if t < 0:
                t = n
            flip = rob_empty.find(0 if empty else 1, i + 1, t)
            if flip >= 0:
                t = flip
            q = bisect_right(cb, lo, i + 1, t + 1)
            if q <= t:
                t = q - 1  # record q-1 is the first committing record
            if not empty:
                # Head-of-ROB stall run.
                if pending:
                    d = bisect_right(db, db[i + 1], i + 2, t + 1)
                    if d <= t:
                        t = d - 1
                run = t - i
                f = flags_b[i]
                uniform = run == 1 or flags_b.count(f, i, t) == run
                if uniform and f & _WIRE_HEAD:
                    step = _WIRE_NOPT[f]
                    base0 = opt_base[i]
                    head = opt_vals[base0]
                    if run > 1:
                        hv = opt_vals[base0:base0 + step * run:step]
                        uniform = len(hv) == run and hv[:run - 1] == hv[1:]
                elif uniform:
                    head = None
                if uniform:
                    code = stall_codes.get(head)
                    if code is None:
                        code = _CAT_CODE[stall_category(program, head)]
                        stall_codes[head] = code
                    add_run(head, run, code)
                else:
                    # Mixed flags or heads inside the span: classify
                    # record by record, exactly like the cycle engine.
                    rob_head_at = block.rob_head_at
                    for j in range(i, t):
                        head = rob_head_at(j)
                        code = stall_codes.get(head)
                        if code is None:
                            code = _CAT_CODE[stall_category(program,
                                                            head)]
                            stall_codes[head] = code
                        add(head, 1.0, code)
                i = t
                continue
            if self._oir_flag == _FLAG_MISPREDICT:
                if pending:
                    d = bisect_right(db, db[i + 1], i + 2, t + 1)
                    if d <= t:
                        t = d - 1
                add_run(self._oir_addr, t - i, mispredict,
                        flush_code[self._oir_kind])
            elif self._oir_flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
                if pending:
                    d = bisect_right(db, db[i + 1], i + 2, t + 1)
                    if d <= t:
                        t = d - 1
                add_run(self._oir_addr, t - i, misc_flush,
                        flush_code[self._oir_kind])
            else:
                # Front-end drain: park the run; any dispatch inside
                # the span must resolve it, so cut there.
                d = bisect_right(db, db[i + 1], i + 2, t + 1)
                if d <= t:
                    t = d - 1
                pending.extend(range(start + i, start + t))
            i = t

    def _on_block_watch(self, block) -> None:
        """Watch-mode columnar replay: per-cycle :meth:`on_cycle`
        semantics (schedule advancement, interval accumulation, watched
        attributions) straight off the block's columns, without
        materializing ``CycleRecord`` objects."""
        start = block.start_cycle
        commit_base = block.commit_base
        commit_addr = block.commit_addr
        commit_meta = block.commit_meta
        disp_base = block.disp_base
        disp_addr = block.disp_addr
        exceptions = block.exception
        exc_ordering = block.exc_ordering
        rob_empty = block.rob_empty
        rob_head = block.rob_head
        program = self.program
        stall_cats = self._stall_cats
        markers = self._watch_markers
        watch = self._watch
        emit = self._emit
        for i in range(block.n):
            cycle = start + i
            for marker in markers:
                if marker.is_sample(cycle):
                    watch.add(cycle)
            if self._pending_drain and disp_base[i + 1] > disp_base[i]:
                self._resolve_drain(disp_addr[disp_base[i]])
            exc = exceptions[i]
            if exc is not None:
                self._oir_addr = exc
                self._oir_flag = _FLAG_EXCEPTION
                self._oir_kind = (FlushKind.ORDERING if exc_ordering[i]
                                  else FlushKind.EXCEPTION)
                emit(cycle, [(exc, 1.0)], Category.MISC_FLUSH,
                     self._oir_kind)
                continue
            lo, hi = commit_base[i], commit_base[i + 1]
            if hi > lo:
                share = 1.0 / (hi - lo)
                emit(cycle, [(commit_addr[k], share)
                             for k in range(lo, hi)],
                     Category.EXECUTION)
                self._oir_addr = commit_addr[hi - 1]
                meta = commit_meta[hi - 1]
                if meta & 0x40:
                    self._oir_flag = _FLAG_MISPREDICT
                    self._oir_kind = FlushKind.MISPREDICT
                elif meta & 0x80:
                    self._oir_flag = _FLAG_FLUSH
                    self._oir_kind = FlushKind.CSR
                else:
                    self._oir_flag = _FLAG_NONE
                    self._oir_kind = None
                continue
            if not rob_empty[i]:
                head = rob_head[i]
                category = stall_cats.get(head)
                if category is None:
                    category = stall_category(program, head)
                    stall_cats[head] = category
                emit(cycle, [(head, 1.0)], category)
                continue
            if self._oir_flag == _FLAG_MISPREDICT:
                emit(cycle, [(self._oir_addr, 1.0)],
                     Category.MISPREDICT, self._oir_kind)
            elif self._oir_flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
                emit(cycle, [(self._oir_addr, 1.0)],
                     Category.MISC_FLUSH, self._oir_kind)
            else:
                self._pending_drain.append(cycle)

    def on_finish(self, final_cycle: int) -> None:
        # Any unresolved drain at the end of the run has no successor
        # instruction; those cycles are dropped (they cannot occur after
        # the final halt commits, so this only covers truncated runs).
        self._pending_drain.clear()
        if self._fast is not None:
            self._fast.flush_into(self.report)
        self.report.total_cycles = final_cycle

    # -- internals -------------------------------------------------------------------

    def _resolve_drain(self, addr: int) -> None:
        # Cleared in place: the block fast path holds an alias.
        pending = self._pending_drain
        if self._fast is not None:
            self._fast.add_run(addr, len(pending),
                               _CAT_CODE[Category.FRONTEND])
            pending.clear()
            return
        cycles = list(pending)
        pending.clear()
        for cycle in cycles:
            self._emit(cycle, [(addr, 1.0)], Category.FRONTEND)

    def _emit(self, cycle: int, weights: Attribution,
              category: Category,
              flush_kind: Optional[FlushKind] = None) -> None:
        if self._fast is not None:
            # No watches are active; route through the scratch so a run
            # that mixes per-record and block input keeps one
            # accumulation order.
            cat_code = _CAT_CODE[category]
            flush_code = -1 if flush_kind is None \
                else _FLUSH_CODE[flush_kind]
            for addr, weight in weights:
                self._fast.add(addr, weight, cat_code, flush_code)
            return
        for addr, weight in weights:
            self.report.add(addr, weight, category, flush_kind)
        if cycle in self._watch:
            self.report.watched[cycle] = (weights, category)
        for accumulator in self._accumulators:
            accumulator.add(cycle, weights)
