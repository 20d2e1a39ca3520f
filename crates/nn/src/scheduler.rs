//! Continuous-batching decode: per-token sequence scheduling over a
//! paged KV cache.
//!
//! The lockstep [`decode_batch`](crate::generate::decode_batch) requires
//! every batchmate to share one token budget and re-forwards each full
//! sequence per token. The [`DecodeScheduler`] replaces both
//! constraints: sequences **join and leave the running batch at token
//! granularity** — a new request admitted mid-flight decodes its first
//! token on the very next step, a finished, cancelled, or failed
//! sequence frees its KV pages immediately — and each step forwards only
//! the tokens that are not yet cached, gathering K/V through the
//! sequence's block table ([`KvArena`]).
//!
//! # Bit-exactness
//!
//! With FP pages ([`KvPageConfig::quant`] `= None`) every sequence's
//! output is byte-identical to the same request run alone through
//! [`try_generate`](crate::generate::try_generate), independent of
//! batchmates, admission order, eviction, and worker count — the
//! invariant `tests/paged_decode.rs` proptests. See
//! [`QuantizedLm::try_forward_paged`] for why. (The W4A8 activation
//! tier's `Auto` policy picks its tier by call shape, so byte-identity
//! is claimed for the default, exact ladder — `ActPolicy::Never` — which
//! is what the serving runtime runs.)
//!
//! # Eviction
//!
//! [`DecodeScheduler::evict_longest_idle`] implements preemption by
//! recomputation (the vLLM recipe): the victim's pages are returned to
//! the arena and the sequence is paused; on resume its next step
//! re-prefills the whole prefix in one pass — which, by the same
//! row-independence argument, leaves its continuation bit-identical.
//!
//! # Self-healing (DESIGN.md §13–§14)
//!
//! The same recomputation machinery heals two KV-arena failure modes
//! that PR 8 would have panicked or silently corrupted on:
//!
//! * **Detected corruption** ([`KvError::CorruptPage`], from the
//!   arena's checksum verification on gather): with parity groups
//!   enabled ([`KvPageConfig::parity`]) the arena first reconstructs
//!   the corrupt page in place from its XOR parity group — invisible
//!   to the scheduler beyond a counter. Only when reconstruction is
//!   impossible (ungrouped page, degraded group, flipped block table)
//!   does the error surface here, and the owning sequence is
//!   *poisoned* — its pages are dropped and its next step re-prefills
//!   the whole prefix, which reproduces the cached state (and therefore
//!   the continuation) bit-identically. A sequence that keeps failing
//!   verification after repeated repairs retires with a typed
//!   [`GenerateError::Kv`] instead of looping. A proactive **scrubber**
//!   ([`KvArena::scrub`], budgeted by [`KvPageConfig::scrub`]) runs at
//!   every step boundary so latent corruption in cold pages is found
//!   and reconstructed before a gather trips over it; scrub failures
//!   take the same recompute path.
//! * **Capacity exhaustion** ([`KvError::CapacityExhausted`], from the
//!   [`KvPageConfig::max_pages`] bound): the sequence *stalls* — its
//!   pages are reclaimed and it waits, deadline still ticking, until
//!   enough pages free up; a stall is backpressure, never an OOM and
//!   never a failed request (admission pre-checks that a request can
//!   fit the arena alone, so a stalled sequence always eventually
//!   runs).

use crate::eval::{PagedError, QuantizedLm};
use crate::generate::{check_request, select_token, DecodeOutcome, Decoding, GenerateError};
use crate::kvcache::{KvArena, KvError, KvPageConfig, SeqId, KV_FAULT_SITES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Consecutive repair attempts a sequence may consume without
/// producing a token before it retires with a typed error — the guard
/// against a persistently faulty page region turning repair into a
/// livelock.
const MAX_REPAIR_STRIKES: u8 = 3;

/// A scheduled sequence's identity, unique for the scheduler's lifetime
/// (never reused, unlike KV slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqHandle(u64);

/// What [`DecodeScheduler::step`] reports for a sequence that left the
/// batch this step.
#[derive(Debug)]
pub enum StepEvent {
    /// The sequence retired: budget met (`outcome.completed`) or stopped
    /// by the `keep_going` callback (`!outcome.completed`, tokens so
    /// far).
    Finished {
        /// The retired sequence.
        handle: SeqHandle,
        /// Prompt plus generated tokens, as [`decode_batch`]'s slots.
        ///
        /// [`decode_batch`]: crate::generate::decode_batch
        outcome: DecodeOutcome,
    },
    /// The sequence's forward pass failed; its pages were freed.
    Failed {
        /// The failed sequence.
        handle: SeqHandle,
        /// The typed failure.
        error: GenerateError,
    },
}

struct SeqState {
    handle: SeqHandle,
    kv: SeqId,
    tokens: Vec<usize>,
    prompt_len: usize,
    budget: usize,
    rng: Option<StdRng>,
    /// Positions with valid cached KV (0 after admit or eviction; the
    /// next step forwards `tokens[cached..]` in one pass).
    cached: usize,
    paused: bool,
    /// Waiting out KV capacity pressure: pages reclaimed, resumed by
    /// the scheduler itself as soon as the re-prefill fits the arena.
    stalled: bool,
    /// Consecutive corruption repairs without a produced token.
    repair_strikes: u8,
    /// Step index of the last produced token (eviction recency).
    last_active: u64,
}

impl SeqState {
    fn generated(&self) -> usize {
        self.tokens.len() - self.prompt_len
    }

    fn outcome(self, completed: bool) -> DecodeOutcome {
        DecodeOutcome {
            generated: self.tokens.len() - self.prompt_len,
            tokens: self.tokens,
            completed,
        }
    }
}

/// Token-granular continuous batching over a paged KV arena. See the
/// module docs.
pub struct DecodeScheduler<'a> {
    qlm: &'a QuantizedLm,
    mode: Decoding,
    arena: KvArena,
    seqs: Vec<SeqState>,
    next_handle: u64,
    step_no: u64,
    tokens_peak: usize,
    /// Corruption repairs that fell back to reset + re-prefill
    /// (reconstruction-in-place repairs are counted by the arena).
    kv_repairs_recomputed: u64,
    kv_capacity_stalls: u64,
    /// Integrity targets the arena scrubs per step boundary.
    scrub_budget: usize,
}

impl std::fmt::Debug for DecodeScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeScheduler")
            .field("live", &self.seqs.len())
            .field("arena", &self.arena)
            .finish()
    }
}

impl<'a> DecodeScheduler<'a> {
    /// A scheduler decoding under `mode` with `kv`-configured pages.
    pub fn new(qlm: &'a QuantizedLm, mode: Decoding, kv: KvPageConfig) -> Self {
        DecodeScheduler {
            arena: qlm.kv_arena(kv),
            qlm,
            mode,
            seqs: Vec::new(),
            next_handle: 0,
            step_no: 0,
            tokens_peak: 0,
            kv_repairs_recomputed: 0,
            kv_capacity_stalls: 0,
            scrub_budget: kv.scrub,
        }
    }

    /// Admit a sequence into the running batch; it decodes its first
    /// token on the next [`step`](DecodeScheduler::step). Validation
    /// matches [`try_generate`](crate::generate::try_generate), plus a
    /// KV-capacity pre-check: a request whose full extent
    /// (`prompt + budget`) could never fit the arena even alone is
    /// refused with a typed [`GenerateError::Kv`] — which is what
    /// guarantees an admitted-then-stalled sequence always eventually
    /// runs.
    pub fn admit(&mut self, prompt: &[usize], new_tokens: usize) -> Result<SeqHandle, GenerateError> {
        check_request(self.qlm, prompt, new_tokens)?;
        let needed = (prompt.len() + new_tokens).div_ceil(self.arena.block());
        if needed > self.arena.max_pages() {
            return Err(GenerateError::Kv(KvError::CapacityExhausted {
                needed,
                live: self.arena.live_pages(),
                max_pages: self.arena.max_pages(),
            }));
        }
        let kv = self.arena.try_join()?;
        let handle = SeqHandle(self.next_handle);
        self.next_handle += 1;
        // Seeded exactly as the serial path, so sampling is independent
        // of batch composition.
        let rng = match self.mode {
            Decoding::Sample { seed, .. } => Some(StdRng::seed_from_u64(seed)),
            Decoding::Greedy => None,
        };
        self.seqs.push(SeqState {
            handle,
            kv,
            tokens: prompt.to_vec(),
            prompt_len: prompt.len(),
            budget: new_tokens,
            rng,
            cached: 0,
            paused: false,
            stalled: false,
            repair_strikes: 0,
            last_active: self.step_no,
        });
        Ok(handle)
    }

    /// Remove a sequence immediately, freeing its pages. Returns its
    /// tokens so far (`completed: false`), or `None` for an unknown or
    /// already-retired handle.
    pub fn cancel(&mut self, handle: SeqHandle) -> Option<DecodeOutcome> {
        let i = self.seqs.iter().position(|s| s.handle == handle)?;
        let seq = self.seqs.remove(i);
        self.arena.leave(seq.kv);
        Some(seq.outcome(false))
    }

    /// Sequences currently in the batch (including paused ones).
    pub fn live(&self) -> usize {
        self.seqs.len()
    }

    /// Tokens currently held by live sequences (prompt + generated so
    /// far) — what the KV pages back right now.
    pub fn tokens_in_flight(&self) -> usize {
        self.seqs.iter().map(|s| s.tokens.len()).sum()
    }

    /// High-water mark of [`tokens_in_flight`](Self::tokens_in_flight).
    pub fn tokens_peak(&self) -> usize {
        self.tokens_peak
    }

    /// Tokens live sequences will occupy at completion (prompt + full
    /// budget) — the admission-bound quantity: admitting while this
    /// stays under the cap guarantees the page high-water is bounded by
    /// live tokens, never by max-budget × queue depth.
    pub fn tokens_committed(&self) -> usize {
        self.seqs.iter().map(|s| s.prompt_len + s.budget).sum()
    }

    /// KV pages currently owned by live sequences.
    pub fn kv_pages_live(&self) -> usize {
        self.arena.live_pages()
    }

    /// High-water mark of simultaneously live KV pages.
    pub fn kv_pages_peak(&self) -> usize {
        self.arena.peak_pages()
    }

    /// Positions per KV page.
    pub fn kv_block(&self) -> usize {
        self.arena.block()
    }

    /// The arena's hard cap on simultaneously live KV pages.
    pub fn kv_max_pages(&self) -> usize {
        self.arena.max_pages()
    }

    /// Page regions checksum-verified on gather so far.
    pub fn kv_pages_verified(&self) -> u64 {
        self.arena.pages_verified()
    }

    /// KV corruption events (checksum mismatches / out-of-slab table
    /// entries) detected so far.
    pub fn kv_corruptions_detected(&self) -> u64 {
        self.arena.corruptions_detected()
    }

    /// Corruption repairs that had to reset + re-prefill the sequence
    /// (reconstruction impossible: ungrouped page, degraded parity
    /// group, or a flipped block table).
    pub fn kv_repairs_recomputed(&self) -> u64 {
        self.kv_repairs_recomputed
    }

    /// Corrupt pages the arena healed in place from parity + surviving
    /// siblings — repairs that cost O(one page), not O(prefix).
    pub fn kv_repairs_reconstructed(&self) -> u64 {
        self.arena.reconstructions()
    }

    /// Integrity targets (data and parity pages) proactively verified
    /// by the per-step scrubber.
    pub fn kv_pages_scrubbed(&self) -> u64 {
        self.arena.pages_scrubbed()
    }

    /// Corruptions the scrubber found and repaired in place before any
    /// gather tripped on them.
    pub fn kv_scrub_repairs(&self) -> u64 {
        self.arena.scrub_repairs()
    }

    /// Steps a sequence spent waiting out KV capacity pressure.
    pub fn kv_capacity_stalls(&self) -> u64 {
        self.kv_capacity_stalls
    }

    /// Sequences currently stalled on KV capacity.
    pub fn stalled(&self) -> usize {
        self.seqs.iter().filter(|s| s.stalled).count()
    }

    /// Total fault-injection surface (see
    /// [`KvArena::seq_fault_surface`]) over the *running* sequences —
    /// the ones whose committed pages the next steps will gather.
    #[doc(hidden)]
    pub fn kv_fault_surface(&self, site: &str) -> usize {
        self.seqs
            .iter()
            .filter(|s| !s.paused && !s.stalled)
            .map(|s| self.arena.seq_fault_surface(s.kv, site))
            .sum()
    }

    /// Flip one bit of running-sequence KV state at `site` (word
    /// indexed over [`kv_fault_surface`](Self::kv_fault_surface)).
    /// Test/fault-campaign hook; checksums are deliberately left stale.
    #[doc(hidden)]
    pub fn inject_kv_fault(&mut self, site: &str, mut word: usize, bit: u32) -> bool {
        let ids: Vec<SeqId> = self
            .seqs
            .iter()
            .filter(|s| !s.paused && !s.stalled)
            .map(|s| s.kv)
            .collect();
        for id in ids {
            let n = self.arena.seq_fault_surface(id, site);
            if word < n {
                return self.arena.inject_seq_fault(id, site, word, bit);
            }
            word -= n;
        }
        false
    }

    /// Flip one uniformly chosen bit across every site's surface, seeded
    /// deterministically — the serve soak's mid-flight corruption hook.
    /// Returns whether any committed KV state existed to corrupt.
    #[doc(hidden)]
    pub fn inject_random_kv_fault(&mut self, seed: u64) -> bool {
        let mut x = seed | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m.max(1)
        };
        let surfaces: Vec<(usize, &str)> =
            KV_FAULT_SITES.iter().map(|&s| (self.kv_fault_surface(s), s)).collect();
        let total: usize = surfaces.iter().map(|&(n, _)| n).sum();
        if total == 0 {
            return false;
        }
        let mut w = next(total as u64) as usize;
        for (n, site) in surfaces {
            if w < n {
                let bit = next(if site == "kv-table" { 64 } else { 32 }) as u32;
                return self.inject_kv_fault(site, w, bit);
            }
            w -= n;
        }
        false
    }

    /// Evict the sequence whose last token is oldest (preemption by
    /// recomputation): its pages return to the arena and it pauses until
    /// [`resume_one`](Self::resume_one). Returns the victim and the
    /// pages freed; `None` when no unpaused sequence holds pages.
    pub fn evict_longest_idle(&mut self) -> Option<(SeqHandle, usize)> {
        let victim = self
            .seqs
            .iter()
            .filter(|s| !s.paused && s.cached > 0)
            .min_by_key(|s| (s.last_active, s.handle))?
            .handle;
        let seq = self.seqs.iter_mut().find(|s| s.handle == victim)?;
        seq.paused = true;
        seq.cached = 0;
        let freed = self.arena.reset(seq.kv);
        Some((victim, freed))
    }

    /// Un-pause the longest-paused sequence, if any; its next step
    /// re-prefills the whole prefix. Returns the resumed handle.
    pub fn resume_one(&mut self) -> Option<SeqHandle> {
        let seq = self.seqs.iter_mut().filter(|s| s.paused).min_by_key(|s| s.handle)?;
        seq.paused = false;
        Some(seq.handle)
    }

    /// Paused (evicted, not yet resumed) sequences.
    pub fn paused(&self) -> usize {
        self.seqs.iter().filter(|s| s.paused).count()
    }

    /// Decode one token for every live, unpaused sequence. `keep_going`
    /// is consulted per sequence before its forward pass (the
    /// token-granular cancellation point, as in `decode_batch`) —
    /// including paused sequences, so deadlines fire while evicted.
    /// Returns the retirement events of this step, in admission order.
    ///
    /// Sequences in steady state (exactly one uncached token) are
    /// stacked into a single batched forward
    /// ([`QuantizedLm::try_forward_paged_batch`]) so dense-layer
    /// dispatch and verification amortise across the batch — the
    /// continuous-batching throughput win — while sequences mid-prefill
    /// (fresh admissions, post-eviction re-prefills, repairs) forward
    /// individually through `QuantizedLm::try_forward_paged_last`,
    /// which appends every prompt row's K/V but runs the final block
    /// past its K/V, the final LayerNorm and the head for the sampled
    /// last row only. Row-independence keeps both paths bit-identical to
    /// serial decoding; a failure of the stacked pass fails every
    /// sequence in it.
    pub fn step(&mut self, mut keep_going: impl FnMut(SeqHandle) -> bool) -> Vec<StepEvent> {
        self.step_no += 1;
        let step_no = self.step_no;
        let qlm = self.qlm;
        let mode = self.mode;
        let v = qlm.vocab();
        let mut events = Vec::new();
        // Retirement sweep: budget already met, or stopped by the
        // caller; paused sequences are swept too so deadlines fire.
        let mut i = 0usize;
        while i < self.seqs.len() {
            let handle = self.seqs[i].handle;
            let done = self.seqs[i].generated() >= self.seqs[i].budget;
            if done || !keep_going(handle) {
                let seq = self.seqs.remove(i);
                self.arena.leave(seq.kv);
                events.push(StepEvent::Finished { handle, outcome: seq.outcome(done) });
                continue;
            }
            i += 1;
        }
        // Proactive scrub: spend the configured budget verifying cold
        // pages (and parity pages) so latent corruption is
        // reconstructed before a gather trips on it mid-decode. Pages
        // the scrubber could not reconstruct poison their owner, which
        // takes the same strike-bounded recompute path as a
        // gather-detected corruption.
        if self.scrub_budget > 0 {
            let mut poisoned: Vec<SeqId> = Vec::new();
            for (sid, index) in self.arena.scrub(self.scrub_budget) {
                if poisoned.contains(&sid) {
                    continue;
                }
                poisoned.push(sid);
                let Some(pos) = self.seqs.iter().position(|s| s.kv == sid) else { continue };
                self.kv_repairs_recomputed += 1;
                self.seqs[pos].repair_strikes += 1;
                if self.seqs[pos].repair_strikes > MAX_REPAIR_STRIKES {
                    let seq = self.seqs.remove(pos);
                    self.arena.leave(seq.kv);
                    events.push(StepEvent::Failed {
                        handle: seq.handle,
                        error: GenerateError::Kv(KvError::CorruptPage { seq: sid, index }),
                    });
                } else {
                    self.arena.reset(sid);
                    self.seqs[pos].cached = 0;
                }
            }
        }
        // Un-stall pass: greedily resume capacity-stalled sequences
        // whose whole re-prefill fits the arena's remaining headroom.
        // When every live sequence is stalled the arena is empty, so the
        // first admissible one always resumes — no livelock.
        let (block, max_pages) = (self.arena.block(), self.arena.max_pages());
        let mut budgeted = self.arena.live_pages();
        for seq in self.seqs.iter_mut().filter(|s| s.stalled) {
            let needed = seq.tokens.len().div_ceil(block);
            if budgeted + needed <= max_pages {
                seq.stalled = false;
                budgeted += needed;
            }
        }
        // Forward passes: one stacked call for the steady-state cohort,
        // individual last-row calls for multi-token prefills. `rows[idx]`
        // ends up with sequence idx's last logits row (or its failure).
        let mut rows: Vec<Option<Result<Vec<f32>, PagedError>>> =
            self.seqs.iter().map(|_| None).collect();
        let single: Vec<usize> = self
            .seqs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.paused && !s.stalled && s.tokens.len() - s.cached == 1)
            .map(|(idx, _)| idx)
            .collect();
        if single.len() > 1 {
            let items: Vec<(SeqId, usize, usize)> = single
                .iter()
                .map(|&idx| {
                    let s = &self.seqs[idx];
                    (s.kv, s.cached, s.tokens[s.cached])
                })
                .collect();
            match qlm.try_forward_paged_batch(&items, &mut self.arena) {
                Ok(logits) => {
                    for (r, &idx) in single.iter().enumerate() {
                        rows[idx] = Some(Ok(logits[r * v..(r + 1) * v].to_vec()));
                    }
                }
                // A detected-corrupt page names one poisoned sequence:
                // only it takes the error (and heals below); blameless
                // batchmates stay `None` and retry individually this
                // same step — their uncommitted appends are idempotent.
                Err(PagedError::Kv(KvError::CorruptPage { seq, index })) => {
                    for &idx in &single {
                        if self.seqs[idx].kv == seq {
                            rows[idx] =
                                Some(Err(PagedError::Kv(KvError::CorruptPage { seq, index })));
                        }
                    }
                }
                // Capacity exhaustion mid-batch: stall the largest
                // cohort member (frees the most pages); the rest retry
                // individually and stall one by one only if they must.
                Err(PagedError::Kv(e @ KvError::CapacityExhausted { .. })) => {
                    if let Some(&idx) = single
                        .iter()
                        .max_by_key(|&&idx| (self.seqs[idx].tokens.len(), self.seqs[idx].handle))
                    {
                        rows[idx] = Some(Err(PagedError::Kv(e)));
                    }
                }
                Err(e) => {
                    for &idx in &single {
                        rows[idx] = Some(Err(e.clone()));
                    }
                }
            }
        }
        for (idx, row) in rows.iter_mut().enumerate() {
            if self.seqs[idx].paused || self.seqs[idx].stalled || row.is_some() {
                continue;
            }
            let s = &self.seqs[idx];
            let toks = &s.tokens[s.cached..];
            *row = Some(qlm.try_forward_paged_last(toks, s.cached, &mut self.arena, s.kv));
        }
        // Commit, select, and retire in admission order.
        let mut kept = Vec::with_capacity(self.seqs.len());
        for (idx, mut seq) in std::mem::take(&mut self.seqs).into_iter().enumerate() {
            let handle = seq.handle;
            match rows[idx].take() {
                None => kept.push(seq), // paused or stalled
                Some(Ok(last)) => {
                    if let Err(e) = self.arena.try_commit(seq.kv, seq.tokens.len()) {
                        self.arena.leave(seq.kv);
                        events.push(StepEvent::Failed { handle, error: e.into() });
                        continue;
                    }
                    seq.cached = seq.tokens.len();
                    seq.repair_strikes = 0;
                    let next = select_token(&last, mode, seq.rng.as_mut());
                    seq.tokens.push(next);
                    seq.last_active = step_no;
                    if seq.generated() >= seq.budget {
                        self.arena.leave(seq.kv);
                        events.push(StepEvent::Finished { handle, outcome: seq.outcome(true) });
                    } else {
                        kept.push(seq);
                    }
                }
                // Self-healing: drop the poisoned pages and re-prefill
                // next step (bit-identical by the eviction argument) —
                // unless this sequence has exhausted its repair budget.
                Some(Err(PagedError::Kv(e @ KvError::CorruptPage { .. }))) => {
                    self.kv_repairs_recomputed += 1;
                    seq.repair_strikes += 1;
                    if seq.repair_strikes > MAX_REPAIR_STRIKES {
                        self.arena.leave(seq.kv);
                        events.push(StepEvent::Failed { handle, error: GenerateError::Kv(e) });
                    } else {
                        self.arena.reset(seq.kv);
                        seq.cached = 0;
                        kept.push(seq);
                    }
                }
                // Backpressure: reclaim the pages and wait for headroom.
                Some(Err(PagedError::Kv(KvError::CapacityExhausted { .. }))) => {
                    self.kv_capacity_stalls += 1;
                    self.arena.reset(seq.kv);
                    seq.cached = 0;
                    seq.stalled = true;
                    kept.push(seq);
                }
                Some(Err(e)) => {
                    self.arena.leave(seq.kv);
                    events.push(StepEvent::Failed { handle, error: e.into() });
                }
            }
        }
        self.seqs = kept;
        self.tokens_peak = self.tokens_peak.max(self.tokens_in_flight());
        events
    }
}

/// Decode `prompts` to completion through a [`DecodeScheduler`] —
/// the continuous-batching counterpart of
/// [`decode_batch`](crate::generate::decode_batch), with the same
/// per-slot result contract.
pub fn decode_continuous(
    qlm: &QuantizedLm,
    prompts: &[&[usize]],
    new_tokens: usize,
    mode: Decoding,
    kv: KvPageConfig,
) -> Vec<Result<DecodeOutcome, GenerateError>> {
    let mut sched = DecodeScheduler::new(qlm, mode, kv);
    let mut slot_of = std::collections::HashMap::new();
    let mut out: Vec<Option<Result<DecodeOutcome, GenerateError>>> =
        prompts.iter().map(|_| None).collect();
    for (i, p) in prompts.iter().enumerate() {
        match sched.admit(p, new_tokens) {
            Ok(h) => {
                slot_of.insert(h, i);
            }
            Err(e) => out[i] = Some(Err(e)),
        }
    }
    while sched.live() > 0 {
        for ev in sched.step(|_| true) {
            match ev {
                StepEvent::Finished { handle, outcome } => {
                    if let Some(&i) = slot_of.get(&handle) {
                        out[i] = Some(Ok(outcome));
                    }
                }
                StepEvent::Failed { handle, error } => {
                    if let Some(&i) = slot_of.get(&handle) {
                        out[i] = Some(Err(error));
                    }
                }
            }
        }
    }
    out.into_iter()
        .map(|o| o.unwrap_or(Err(GenerateError::EmptyPrompt)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, MarkovSpec};
    use crate::eval::{quantize_model, Scheme};
    use crate::generate::{decode_batch, try_generate};
    use crate::layers::ActKind;
    use crate::model::{LmConfig, TransformerLm};
    use axcore::reliability::VerifyPolicy;
    use axcore_quant::KvQuantConfig;
    use proptest::prelude::*;
    use rand::RngExt;
    use std::sync::OnceLock;

    fn fixture() -> &'static (TransformerLm, Corpus) {
        static FIX: OnceLock<(TransformerLm, Corpus)> = OnceLock::new();
        FIX.get_or_init(|| {
            let cfg = LmConfig {
                vocab: 24,
                d_model: 24,
                n_layers: 2,
                n_heads: 2,
                d_ff: 48,
                max_seq: 40,
                act: ActKind::Relu,
            };
            let corpus = Corpus::generate(MarkovSpec { vocab: 24, branching: 2, seed: 5 }, 6000, 600);
            let mut model = TransformerLm::new(cfg, 17);
            crate::train::train(
                &mut model,
                &corpus,
                &crate::train::TrainConfig { steps: 100, seq_len: 24, ..Default::default() },
            );
            (model, corpus)
        })
    }

    #[test]
    fn continuous_matches_serial_bit_for_bit() {
        let (model, corpus) = fixture();
        let q = quantize_model(model, Scheme::AxCore, 24, None);
        let prompts: Vec<&[usize]> = vec![&corpus.val[..4], &corpus.val[4..10], &corpus.val[10..13]];
        for mode in [Decoding::Greedy, Decoding::Sample { temperature: 0.9, seed: 11 }] {
            let out = decode_continuous(&q, &prompts, 8, mode, KvPageConfig::default());
            for (p, o) in prompts.iter().zip(&out) {
                let o = o.as_ref().expect("healthy request");
                assert!(o.completed);
                let serial = try_generate(&q, p, 8, mode).expect("serial reference");
                assert_eq!(o.tokens, serial, "continuous == serial, independent of batchmates");
            }
        }
    }

    #[test]
    fn mid_flight_admission_and_ragged_budgets_stay_bit_exact() {
        let (model, corpus) = fixture();
        let q = quantize_model(model, Scheme::AxCore, 24, None);
        let mut sched = DecodeScheduler::new(&q, Decoding::Greedy, KvPageConfig::default());
        let a = sched.admit(&corpus.val[..4], 9).expect("admit a");
        let b = sched.admit(&corpus.val[4..10], 3).expect("admit b");
        let mut done = std::collections::HashMap::new();
        // Two steps in, a third request joins the running batch.
        let mut c = None;
        for round in 0..32 {
            if round == 2 {
                c = Some(sched.admit(&corpus.val[10..13], 5).expect("admit c"));
            }
            for ev in sched.step(|_| true) {
                if let StepEvent::Finished { handle, outcome } = ev {
                    done.insert(handle, outcome);
                }
            }
            if sched.live() == 0 {
                break;
            }
        }
        assert_eq!(sched.kv_pages_live(), 0, "retired sequences freed their pages");
        for (h, p, n) in [
            (a, &corpus.val[..4], 9),
            (b, &corpus.val[4..10], 3),
            (c.expect("admitted"), &corpus.val[10..13], 5),
        ] {
            let o = done.get(&h).expect("finished");
            assert!(o.completed);
            assert_eq!(o.generated, n);
            let serial = try_generate(&q, p, n, Decoding::Greedy).expect("reference");
            assert_eq!(o.tokens, serial, "ragged continuous == serial");
        }
    }

    #[test]
    fn eviction_recomputes_and_preserves_bits() {
        let (model, corpus) = fixture();
        let q = quantize_model(model, Scheme::AxCore, 24, None);
        let mut sched = DecodeScheduler::new(
            &q,
            Decoding::Greedy,
            KvPageConfig { block: 4, ..KvPageConfig::default() },
        );
        let h = sched.admit(&corpus.val[..6], 8).expect("admit");
        sched.step(|_| true);
        sched.step(|_| true);
        let (victim, freed) = sched.evict_longest_idle().expect("evictable");
        assert_eq!(victim, h);
        assert!(freed > 0);
        assert_eq!(sched.kv_pages_live(), 0);
        assert!(sched.evict_longest_idle().is_none(), "paused seq is not re-evicted");
        assert_eq!(sched.resume_one(), Some(h));
        let mut outcome = None;
        while sched.live() > 0 {
            for ev in sched.step(|_| true) {
                if let StepEvent::Finished { outcome: o, .. } = ev {
                    outcome = Some(o);
                }
            }
        }
        let o = outcome.expect("finished");
        assert!(o.completed);
        let serial = try_generate(&q, &corpus.val[..6], 8, Decoding::Greedy).expect("reference");
        assert_eq!(o.tokens, serial, "evict + re-prefill == serial");
    }

    #[test]
    fn matches_lockstep_decode_batch() {
        let (model, corpus) = fixture();
        let q = quantize_model(model, Scheme::AxCore, 24, None);
        let prompts: Vec<&[usize]> = vec![&corpus.val[..4], &corpus.val[4..8]];
        let lockstep = decode_batch(&q, &prompts, 6, Decoding::Greedy, |_| true);
        let continuous = decode_continuous(&q, &prompts, 6, Decoding::Greedy, KvPageConfig::default());
        for (a, b) in lockstep.iter().zip(&continuous) {
            assert_eq!(
                a.as_ref().expect("lockstep").tokens,
                b.as_ref().expect("continuous").tokens
            );
        }
    }

    #[test]
    fn admission_validates_and_accounting_tracks_live_tokens() {
        let (model, corpus) = fixture();
        let q = quantize_model(model, Scheme::Fp16, 24, None);
        let mut sched = DecodeScheduler::new(&q, Decoding::Greedy, KvPageConfig::default());
        assert!(matches!(sched.admit(&[], 4), Err(GenerateError::EmptyPrompt)));
        assert!(matches!(sched.admit(&[9999], 4), Err(GenerateError::TokenOutOfRange { .. })));
        assert!(matches!(
            sched.admit(&corpus.val[..4], 1000),
            Err(GenerateError::ContextOverflow { .. })
        ));
        let h = sched.admit(&corpus.val[..4], 3).expect("admit");
        assert_eq!(sched.tokens_in_flight(), 4);
        assert_eq!(sched.tokens_committed(), 7);
        sched.step(|_| true);
        assert_eq!(sched.tokens_in_flight(), 5);
        let cut = sched.cancel(h).expect("cancel");
        assert!(!cut.completed);
        assert_eq!(cut.generated, 1);
        assert_eq!(sched.tokens_in_flight(), 0);
        assert_eq!(sched.kv_pages_live(), 0);
        assert!(sched.cancel(h).is_none(), "cancel is idempotent");
    }

    /// A model that takes 70-token prompts. Untrained: the pruned-prefill
    /// check compares bits, not quality.
    fn long_qlm() -> &'static QuantizedLm {
        static QLM: OnceLock<QuantizedLm> = OnceLock::new();
        QLM.get_or_init(|| {
            let cfg = LmConfig {
                vocab: 32,
                d_model: 32,
                n_layers: 2,
                n_heads: 2,
                d_ff: 64,
                max_seq: 72,
                act: ActKind::Relu,
            };
            quantize_model(&TransformerLm::new(cfg, 77), Scheme::AxCore, 16, None)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The prefill `step` runs reads only its last row: its logits
        /// are the last row of the all-rows forward bit for bit, and the
        /// two leave the same arena — identical rows on every layer,
        /// identical held bytes, and views that pass full verification —
        /// after a prefill from position 0 and after one over a cached
        /// prefix.
        #[test]
        fn last_row_prefill_equals_the_all_rows_forward(
            quant in any::<bool>(),
            block in prop_oneof![Just(1usize), Just(3usize), Just(16usize)],
            len in 1usize..71,
            cached in 0usize..70,
            seed in 0u64..1000,
            workers in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        ) {
            let q = long_qlm();
            let mut rng = StdRng::seed_from_u64(seed);
            let prompt: Vec<usize> = (0..len).map(|_| rng.random_range(0..q.vocab())).collect();
            let cfg = KvPageConfig {
                quant: quant.then(KvQuantConfig::opt),
                block,
                verify: Some(VerifyPolicy::Full),
                ..Default::default()
            };
            let (mut every, mut last) = (q.kv_arena(cfg), q.kv_arena(cfg));
            let (se, sl) = (every.try_join().expect("join"), last.try_join().expect("join"));
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            // A cached prefix of `cached % len` tokens first, when there is one.
            for w in [0, cached % len, len].windows(2).filter(|w| w[0] < w[1]) {
                let span = w[0]..w[1];
                let toks = &prompt[span.clone()];
                let (all_rows, last_row) = axcore_parallel::with_threads(workers, || {
                    (
                        q.try_forward_paged(toks, span.start, &mut every, se).expect("all rows"),
                        q.try_forward_paged_last(toks, span.start, &mut last, sl).expect("last row"),
                    )
                });
                let v = q.vocab();
                prop_assert_eq!(bits(&last_row), bits(&all_rows[(toks.len() - 1) * v..]), "{:?}", span);
                every.try_commit(se, span.end).expect("commit");
                last.try_commit(sl, span.end).expect("commit");
                prop_assert_eq!(every.resident_bytes(), last.resident_bytes());
                // Each gather runs the view's checks, pinned to full
                // verification of every page it covers.
                let (mut ke, mut ve, mut kl, mut vl) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                for layer in 0..2 {
                    every.try_gather(se, layer, span.end, &mut ke, &mut ve).expect("verified view");
                    last.try_gather(sl, layer, span.end, &mut kl, &mut vl).expect("verified view");
                    prop_assert_eq!((bits(&ke), bits(&ve)), (bits(&kl), bits(&vl)), "layer {}", layer);
                }
            }
        }
    }
}
