"""Step IV — the frequency-based signal-detection algorithm (§IV-C).

This implements Algorithm 1 (sliding scan with the not-present check) and
Algorithm 2 (``NormPower`` with the α/β sanity checks) from the paper,
including the prototype's two practical optimizations (§VI-A):

* **adaptive step sizes** — a coarse pass (step 1000) localizes the window,
  a fine pass (step 10) refines it;
* **one-scan multi-signal detection** — each window's FFT and per-candidate
  power aggregation is computed once and evaluated against every reference
  signal's hypothesis.

The normalized power of a window is ``Σ_{f∈F} P_f − Σ_{f∉F} P_f`` when the
sanity checks pass and ``−∞`` otherwise; a signal is declared *not present*
(the paper's ⊥) when the best normalized power stays below ``ε·R_S``.

Implementation notes (hot path)
-------------------------------
``candidate_powers`` is the cost center of every ranging round: a session
scans ~1200 windows of 4096 samples across its four detections.  The
implementation therefore

* computes the spectrum with a batched ``rfft`` — the recordings are
  real, so the two-sided bin ``b`` of the paper's mapping carries the
  same magnitude as rfft bin ``min(b, N−b)`` by conjugate symmetry (the
  candidates sit above Nyquist, i.e. in the mirrored upper half — see
  ``dsp/fft.py``);
* evaluates the power formula only at the ±θ aggregation bins instead of
  materializing all ``signal_length`` bins per window;
* exploits that every scan grid (``window_starts``/``refine_range``) is
  an arithmetic progression, at most one appended tail start aside: a
  constant-stride run of windows is a zero-copy *strided slab* of the
  recording's sliding-window view, which the FFT kernel consumes row by
  row without the 8 MB/chunk gather copies the previous implementation
  paid (measured ~2× faster on the stride-10 fine pass, bit-identical —
  pocketfft's row copy produces the very same window contents);
* dispatches all FFT/power arithmetic through the process-wide
  :mod:`repro.dsp.backend` kernel provider.  The default backend is the
  bit-compatible numpy reference; the scipy ``workers=`` alternate is
  installed only when asked for by name (see ``docs/pipeline.md``).

The scan logic is split into phases (coarse powers → fine scan per
hypothesis) so that :meth:`repro.core.action.ActionRanging.observe` can
compute one recording's coarse pass once and reuse it for both of its
fine scans.  ``candidate_powers_reference`` preserves the
pre-optimization implementation as an executable specification for the
equivalence tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.frequencies import FrequencyPlan, build_frequency_plan
from repro.core.signal_construction import ReferenceSignal
from repro.dsp.backend import get_backend
from repro.dsp.windows import refine_range, window_starts

__all__ = ["SignalHypothesis", "DetectionResult", "FrequencyDetector"]


@dataclass(frozen=True)
class SignalHypothesis:
    """Detector-side description of one reference signal.

    Attributes
    ----------
    member_mask:
        Boolean vector of length N; ``True`` for candidates in the signal's
        frequency set F.
    tone_power:
        R_f — expected power per tone in the pristine signal.
    beta:
        β — the ceiling on out-of-F candidate power (Algorithm 2, line 9).
    total_power:
        R_S = Σ_f R_f (Algorithm 1, line 11).
    label:
        Human-readable tag used in diagnostics ("S_A", "S_V", …).
    """

    member_mask: np.ndarray
    tone_power: float
    beta: float
    total_power: float
    label: str = ""

    def __post_init__(self) -> None:
        mask = np.asarray(self.member_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "member_mask", mask)
        if not mask.any():
            raise ValueError("a signal hypothesis needs at least one tone")
        if not mask.size - mask.sum() >= 1:
            raise ValueError(
                "a hypothesis using every candidate frequency leaves nothing "
                "for the β sanity check; the paper requires 0 < n < N"
            )

    @classmethod
    def from_reference(
        cls, reference: ReferenceSignal, plan: FrequencyPlan, label: str = ""
    ) -> "SignalHypothesis":
        """Build the hypothesis the detector needs from a reference signal."""
        return cls(
            member_mask=plan.member_mask(reference.candidate_indices),
            tone_power=reference.tone_power,
            beta=reference.beta,
            total_power=reference.total_power,
            label=label,
        )


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of Algorithm 1 for one reference signal.

    ``location`` is the sample index of the window start that maximizes the
    normalized power, or ``None`` for the paper's ⊥ (signal not present).
    """

    location: int | None
    peak_power: float
    threshold: float
    windows_scanned: int
    label: str = ""

    @property
    def present(self) -> bool:
        """Whether the signal was found (``location`` is not ⊥)."""
        return self.location is not None


class FrequencyDetector:
    """The frequency-based detector of §IV-C, for a fixed configuration."""

    #: Minimum length of a constant-stride start run that is worth
    #: dispatching as a strided slab; shorter runs (and irregular starts)
    #: are batched through the fancy-index gather path instead, so a
    #: pathological start list costs at most one gather per chunk rather
    #: than one FFT dispatch per window.
    MIN_STRIDED_RUN = 4

    def __init__(
        self, config: ProtocolConfig, plan: FrequencyPlan | None = None
    ) -> None:
        self.config = config
        self.plan = plan or build_frequency_plan(config)
        # The paper's two-sided aggregation bins, folded onto the rfft
        # half-spectrum: for real input, |X[b]| == |X[N−b]|, and
        # min(b, N−b) also fixes b = 0 and b = N/2.
        bins = self.plan.aggregation_bins
        self._rfft_aggregation_bins = np.minimum(
            bins, self.config.signal_length - bins
        )

    # ------------------------------------------------------------------
    # Power aggregation (Algorithm 2, lines 2–6, batched over windows)
    # ------------------------------------------------------------------

    def _window_batch_powers(self, batch: np.ndarray) -> np.ndarray:
        """Per-candidate powers for a ``(n_windows, signal_length)`` batch."""
        return get_backend().window_powers(
            batch, self._rfft_aggregation_bins, self.config.signal_length
        )

    @staticmethod
    def _chunks(count: int, chunk: int) -> list[tuple[int, int]]:
        """``(lo, hi)`` dispatch bounds over ``count`` windows.

        At most ``chunk`` windows each, except that a one-window
        remainder joins the chunk before it.  A one-window batch sums
        its aggregation bins in a different order than a batch of two or
        more (the gather ``spectra[:, bins]`` is C-contiguous only for
        one window, and numpy then sums pairwise), so a split that left
        one window alone would change that window's power.  A count of
        one stays one dispatch.
        """
        bounds = list(range(0, count, chunk)) + [count]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        return list(zip(bounds[:-1], bounds[1:]))

    @staticmethod
    def _regular_runs(starts: np.ndarray) -> list[tuple[int, int, int]]:
        """Split ``starts`` into maximal constant-stride runs.

        Returns ``(offset, count, step)`` triples covering ``starts`` in
        order.  Scan grids are arithmetic progressions except for the
        appended final start (``window_starts``/``refine_range`` always
        include the last admissible window), so this is one or two runs
        on every hot-path call.
        """
        n = starts.size
        runs: list[tuple[int, int, int]] = []
        a = 0
        while a < n:
            if a == n - 1:
                runs.append((a, 1, 1))
                break
            step = int(starts[a + 1] - starts[a])
            b = a + 1
            while b + 1 < n and int(starts[b + 1] - starts[b]) == step:
                b += 1
            runs.append((a, b - a + 1, step))
            a = b + 1
        return runs

    def _scan_powers(
        self, recording: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Powers for validated window starts inside one recording.

        Constant-stride runs become zero-copy strided slabs of the
        sliding-window view — the FFT kernel's internal per-row copy then
        touches exactly the requested windows, with no 2-D gather buffer
        in between.  Leftover irregular starts fall back to the gather
        path.  Both paths are bit-identical (same window contents, same
        kernel), so the split is purely a scheduling decision; so is the
        chunking (:meth:`_chunks`), at any ``fft_chunk_windows``.
        """
        length = self.config.signal_length
        chunk = get_backend().fft_chunk_windows
        view = np.lib.stride_tricks.sliding_window_view(recording, length)
        out = np.empty(
            (starts.size, self.plan.n_candidates), dtype=np.float64
        )
        loose: list[int] = []
        for offset, count, step in self._regular_runs(starts):
            if count < self.MIN_STRIDED_RUN or step < 1:
                loose.extend(range(offset, offset + count))
                continue
            first = int(starts[offset])
            for lo, hi in self._chunks(count, chunk):
                begin = first + lo * step
                slab = view[begin : begin + (hi - lo - 1) * step + 1 : step]
                out[offset + lo : offset + hi] = self._window_batch_powers(slab)
        if loose:
            order = np.asarray(loose, dtype=np.int64)
            for lo, hi in self._chunks(order.size, chunk):
                sel = order[lo:hi]
                out[sel] = self._window_batch_powers(view[starts[sel]])
        return out

    def candidate_powers(
        self, recording: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Per-candidate aggregated powers for each window start.

        Returns a ``(len(starts), N)`` matrix whose row ``w`` holds
        Algorithm 2's ``P_f`` for every candidate frequency evaluated on the
        window beginning at ``starts[w]``.
        """
        length = self.config.signal_length
        recording = np.asarray(recording, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size == 0:
            return np.empty((0, self.plan.n_candidates), dtype=np.float64)
        if starts.min() < 0 or starts.max() + length > recording.shape[0]:
            raise ValueError("window starts out of range for the recording")
        return self._scan_powers(np.ascontiguousarray(recording), starts)

    def candidate_powers_reference(
        self, recording: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """The pre-optimization implementation, kept as executable spec.

        Builds the full sliding-window view, takes the two-sided FFT, and
        materializes every bin's power before gathering — exactly the
        original hot path.  The equivalence tests assert the window gather
        of :meth:`candidate_powers` matches this bit-for-bit under the
        two-sided FFT, and the benchmarks use it as the pre-refactor
        baseline.
        """
        length = self.config.signal_length
        recording = np.asarray(recording, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size == 0:
            return np.empty((0, self.plan.n_candidates), dtype=np.float64)
        if starts.min() < 0 or starts.max() + length > recording.shape[0]:
            raise ValueError("window starts out of range for the recording")
        windows = np.lib.stride_tricks.sliding_window_view(recording, length)
        batch = windows[starts]
        spectra = np.fft.fft(batch, axis=1)
        power = np.square(2.0 * np.abs(spectra) / length)
        # Gather the ±θ aggregation bins of every candidate and sum them.
        return power[:, self.plan.aggregation_bins].sum(axis=2)

    def normalized_powers(
        self,
        candidate_powers: np.ndarray,
        hypothesis: SignalHypothesis,
        check_alpha: bool = True,
        check_beta: bool = True,
    ) -> np.ndarray:
        """Algorithm 2 for a batch of windows.

        With both checks enabled (the algorithm as written), windows
        failing a sanity check get ``−inf`` (line 7/9); the rest get
        ``Σ_{f∈F} P_f − Σ_{f∉F} P_f`` (line 10).

        The coarse *localization* pass of :meth:`detect` disables the α
        floor (``check_alpha=False``): a window misaligned by up to
        coarse_step/2 loses a quadratic fraction of every tone's power and
        a weak-but-valid signal would be filtered before the fine pass ever
        saw it.  The β ceiling stays on in both passes — it is what keeps
        the scan from locking onto the device's own signal, concurrent
        users, or all-frequency spoofers.  The final decision always runs
        with the full checks.
        """
        mask = hypothesis.member_mask
        if candidate_powers.ndim != 2 or candidate_powers.shape[1] != mask.size:
            raise ValueError(
                f"candidate-power matrix of shape {candidate_powers.shape} "
                f"does not match {mask.size} candidates"
            )
        in_band = candidate_powers[:, mask]
        out_band = candidate_powers[:, ~mask]
        scores = in_band.sum(axis=1) - out_band.sum(axis=1)
        passes = np.ones(candidate_powers.shape[0], dtype=bool)
        if check_alpha:
            alpha_floor = self.config.alpha * hypothesis.tone_power
            passes &= (in_band > alpha_floor).all(axis=1)
        if check_beta and out_band.shape[1]:
            passes &= (out_band < hypothesis.beta).all(axis=1)
        return np.where(passes, scores, -np.inf)

    # ------------------------------------------------------------------
    # Algorithm 1 with the adaptive coarse/fine scan
    # ------------------------------------------------------------------

    def detect(
        self,
        recording: np.ndarray,
        references: Sequence[ReferenceSignal],
        labels: Sequence[str] | None = None,
        exclusion_zones: Sequence[Sequence[tuple[int, int]]] | None = None,
    ) -> list[DetectionResult]:
        """Locate every reference signal in ``recording`` in one scan.

        Parameters
        ----------
        recording:
            The device's recorded sample buffer.
        references:
            The reference signals to locate (usually S_A and S_V).
        labels:
            Optional diagnostic labels, parallel to ``references``.
        exclusion_zones:
            Optional per-reference lists of ``(lo, hi)`` sample-index
            intervals whose windows are skipped.  The protocol uses this
            for the remote-signal scan: the device already knows where its
            *own* (far louder) signal sits, and the playback schedule
            guarantees the peer's signal is at least several signal-lengths
            away, so masking the own-signal neighbourhood is sound protocol
            knowledge rather than a heuristic.

        Returns
        -------
        list[DetectionResult]
            One result per reference, in order.  A result with
            ``location=None`` is the paper's ⊥.
        """
        recording = np.asarray(recording, dtype=np.float64)
        if labels is None:
            labels = [f"S{i}" for i in range(len(references))]
        if len(labels) != len(references):
            raise ValueError("labels must parallel references")
        if exclusion_zones is None:
            exclusion_zones = [[] for _ in references]
        if len(exclusion_zones) != len(references):
            raise ValueError("exclusion_zones must parallel references")
        hypotheses = [
            SignalHypothesis.from_reference(ref, self.plan, label)
            for ref, label in zip(references, labels)
        ]
        coarse_starts = self.coarse_starts(recording.shape[0])
        if coarse_starts.size == 0:
            return [self.empty_result(hyp) for hyp in hypotheses]
        coarse_powers = self.candidate_powers(recording, coarse_starts)

        return [
            self.fine_scan(recording, coarse_starts, coarse_powers, hyp, zones)
            for hyp, zones in zip(hypotheses, exclusion_zones)
        ]

    # ------------------------------------------------------------------
    # Scan phases — detect() composed from reusable pieces, so one
    # recording's coarse pass can serve several fine scans whose zones
    # depend on each other (ActionRanging.observe).
    # ------------------------------------------------------------------

    def fine_scan(
        self,
        recording: np.ndarray,
        coarse_starts: np.ndarray,
        coarse_powers: np.ndarray,
        hypothesis: SignalHypothesis,
        zones: Sequence[tuple[int, int]],
    ) -> DetectionResult:
        """One hypothesis's fine pass and verdict, from a coarse pass."""
        fine_starts = self.plan_fine_scan(
            coarse_starts, coarse_powers, hypothesis, zones, recording.shape[0]
        )
        return self.resolve_fine_scan(
            fine_starts,
            self.candidate_powers(recording, fine_starts),
            hypothesis,
            zones,
            windows_scanned=int(coarse_starts.size + fine_starts.size),
        )

    def coarse_starts(self, total_length: int) -> np.ndarray:
        """Window starts of the coarse localization pass."""
        return window_starts(
            total_length, self.config.signal_length, self.config.coarse_step
        )

    def empty_result(self, hypothesis: SignalHypothesis) -> DetectionResult:
        """The ⊥ result of a scan that had no admissible window."""
        return DetectionResult(
            location=None,
            peak_power=-np.inf,
            threshold=self.config.epsilon * hypothesis.total_power,
            windows_scanned=0,
            label=hypothesis.label,
        )

    def plan_fine_scan(
        self,
        coarse_starts: np.ndarray,
        coarse_powers: np.ndarray,
        hypothesis: SignalHypothesis,
        zones: Sequence[tuple[int, int]],
        total_length: int,
    ) -> np.ndarray:
        """Choose the fine-pass window starts from one coarse pass.

        Coarse pass: localization with the β ceiling but without the
        α floor — a window misaligned by up to coarse_step/2 loses a
        quadratic fraction of every tone's power, and gating the
        coarse pass on α would shrink the detection range Algorithm 1
        (single scan at the fine step) achieves.  β stays on so loud
        off-hypothesis content (own signal, interferers, spoofers)
        cannot capture the argmax, and per-candidate contributions
        are capped near R_f so that a few very loud alien tones
        (another signal whose subset happens to fall inside this
        hypothesis's F) cannot out-score the true signal.
        """
        coarse_scores = self.localization_scores(coarse_powers, hypothesis)
        coarse_scores = self._mask_zones(coarse_scores, coarse_starts, zones)
        if np.isfinite(coarse_scores).any():
            best_coarse = int(np.argmax(coarse_scores))
        else:
            # Everything β-failed (e.g., a blanket all-frequency
            # spoofer): localize on the raw score so the fine pass can
            # render the final — inevitably ⊥ — verdict.
            raw = self.normalized_powers(
                coarse_powers,
                hypothesis,
                check_alpha=False,
                check_beta=False,
            )
            raw = self._mask_zones(raw, coarse_starts, zones)
            best_coarse = int(np.argmax(raw))
        return refine_range(
            center=int(coarse_starts[best_coarse]),
            radius=self.config.fine_radius,
            total_length=total_length,
            window_length=self.config.signal_length,
            step=self.config.fine_step,
        )

    def resolve_fine_scan(
        self,
        fine_starts: np.ndarray,
        fine_powers: np.ndarray,
        hypothesis: SignalHypothesis,
        zones: Sequence[tuple[int, int]],
        windows_scanned: int,
    ) -> DetectionResult:
        """Algorithm 1's final verdict from the fine pass (full checks)."""
        threshold = self.config.epsilon * hypothesis.total_power
        fine_scores = self.normalized_powers(fine_powers, hypothesis)
        fine_scores = self._mask_zones(fine_scores, fine_starts, zones)
        peak = float(np.max(fine_scores))
        location = self._onset_location(fine_starts, fine_scores, peak)
        if not np.isfinite(peak) or peak < threshold:
            return DetectionResult(
                location=None,
                peak_power=peak,
                threshold=threshold,
                windows_scanned=windows_scanned,
                label=hypothesis.label,
            )
        return DetectionResult(
            location=location,
            peak_power=peak,
            threshold=threshold,
            windows_scanned=windows_scanned,
            label=hypothesis.label,
        )

    #: Per-candidate power cap used by the coarse localization score, as a
    #: multiple of the hypothesis's R_f.  A pristine tone measures ≈ R_f;
    #: anything far above it is off-hypothesis content.
    LOCALIZATION_CAP = 1.2

    #: Near-peak tolerance for the onset pick.  The channel's dispersion
    #: tail extends a signal's effective duration, so windows starting up
    #: to ~tail samples after the true arrival can score within a hair of
    #: the maximum (a flat plateau — worst for single-tone references,
    #: whose interior windows still hold a full-length sine).  The
    #: physical arrival is the plateau's *left edge*, so the detector
    #: reports the earliest window within this fraction of the peak.  The
    #: small systematic early bias this introduces is identical for all
    #: four detections of a round and cancels in Eq. 3.
    PLATEAU_TOLERANCE = 0.003

    def _onset_location(
        self, starts: np.ndarray, scores: np.ndarray, peak: float
    ) -> int:
        """Earliest start scoring within PLATEAU_TOLERANCE of the peak."""
        if not np.isfinite(peak) or peak <= 0:
            return int(starts[int(np.argmax(scores))])
        near_peak = scores >= peak * (1.0 - self.PLATEAU_TOLERANCE)
        return int(starts[np.nonzero(near_peak)[0][0]])

    def localization_scores(
        self, candidate_powers: np.ndarray, hypothesis: SignalHypothesis
    ) -> np.ndarray:
        """Robust coarse-pass score: capped in-band sum with the β gate.

        Identical to Algorithm 2 except that (a) the α floor is skipped
        (misaligned coarse windows legitimately lose power) and (b) each
        in-band candidate contributes at most ``LOCALIZATION_CAP · R_f``.
        Only used to choose where the fine pass looks; never for the final
        accept/⊥ decision.
        """
        mask = hypothesis.member_mask
        in_band = np.minimum(
            candidate_powers[:, mask],
            self.LOCALIZATION_CAP * hypothesis.tone_power,
        )
        out_band = candidate_powers[:, ~mask]
        scores = in_band.sum(axis=1) - out_band.sum(axis=1)
        if out_band.shape[1]:
            passes = (out_band < hypothesis.beta).all(axis=1)
            scores = np.where(passes, scores, -np.inf)
        return scores

    def _mask_zones(
        self,
        scores: np.ndarray,
        starts: np.ndarray,
        zones: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        """Set scores of windows overlapping any exclusion zone to −inf."""
        if not zones:
            return scores
        length = self.config.signal_length
        masked = scores.copy()
        for lo, hi in zones:
            overlap = (starts < hi) & (starts + length > lo)
            masked[overlap] = -np.inf
        return masked

    def detect_single(
        self, recording: np.ndarray, reference: ReferenceSignal, label: str = "S"
    ) -> DetectionResult:
        """Convenience wrapper for locating one signal."""
        return self.detect(recording, [reference], [label])[0]

    def scan_profile(
        self, recording: np.ndarray, reference: ReferenceSignal, step: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full normalized-power profile at a fixed step (for diagnostics).

        Returns ``(starts, scores)``; useful for plotting the detection
        landscape in the examples and for asserting peak sharpness in tests.
        """
        recording = np.asarray(recording, dtype=np.float64)
        starts = window_starts(
            recording.shape[0], self.config.signal_length, step
        )
        powers = self.candidate_powers(recording, starts)
        hypothesis = SignalHypothesis.from_reference(reference, self.plan)
        return starts, self.normalized_powers(powers, hypothesis)
