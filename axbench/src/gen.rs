//! Seeded workload inputs. Everything the program receives — prompts,
//! lengths, evaluation windows — comes from here and from `--seed`.

use axcore_nn::{Corpus, MarkovSpec};

/// Tokens per chat prompt and per chat reply.
pub const CHAT_PROMPT: usize = 32;
/// Generated tokens per chat request.
pub const CHAT_OUTPUT: usize = 32;
/// Prompt lengths of `long_context` requests (inclusive).
pub const LONG_PROMPT: (usize, usize) = (256, 320);
/// Output lengths of `long_context` requests (inclusive).
pub const LONG_OUTPUT: (usize, usize) = (128, 192);
/// Tokens in the evaluation window the window probes score.
pub const EVAL_WINDOW: usize = 256;

/// SplitMix64: a small, fast generator whose output depends only on the
/// seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the tag keeps workloads that share
    /// a seed on different streams.
    pub fn new(seed: u64, tag: &str) -> Rng {
        let mut h = seed ^ 0x6A09_E667_F3BC_C909;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Rng(h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A uniform random float in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }

    /// `n` tokens uniform over the vocabulary.
    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// One generation request as the program receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub new_tokens: usize,
}

/// The next chat request of the stream.
pub fn chat_request(rng: &mut Rng, vocab: usize) -> Request {
    Request {
        prompt: rng.tokens(CHAT_PROMPT, vocab),
        new_tokens: CHAT_OUTPUT,
    }
}

/// The next `long_context` request of the stream.
pub fn long_request(rng: &mut Rng, vocab: usize) -> Request {
    let prompt_len = rng.range(LONG_PROMPT.0, LONG_PROMPT.1);
    Request {
        prompt: rng.tokens(prompt_len, vocab),
        new_tokens: rng.range(LONG_OUTPUT.0, LONG_OUTPUT.1),
    }
}

/// One evaluation window: `EVAL_WINDOW` tokens of a stream from the
/// default Markov language, reseeded by the workload seed.
pub fn eval_window(seed: u64) -> Vec<usize> {
    let spec = MarkovSpec {
        seed: Rng::new(seed, "eval").next_u64(),
        ..MarkovSpec::default_language()
    };
    Corpus::generate(spec, 0, EVAL_WINDOW).val
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_list(seed: u64) -> Vec<Request> {
        let mut rng = Rng::new(seed, "long_context");
        (0..12).map(|_| long_request(&mut rng, 64)).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(long_list(7), long_list(7));
        assert_eq!(eval_window(7), eval_window(7));
        let chat = |s| chat_request(&mut Rng::new(s, "chat"), 64);
        assert_eq!(chat(7), chat(7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(long_list(7), long_list(8));
        assert_ne!(eval_window(7), eval_window(8));
        let chat = |s| chat_request(&mut Rng::new(s, "chat"), 64);
        assert_ne!(chat(7), chat(8));
    }

    #[test]
    fn shapes_stay_in_range() {
        for r in long_list(3) {
            assert!((LONG_PROMPT.0..=LONG_PROMPT.1).contains(&r.prompt.len()));
            assert!((LONG_OUTPUT.0..=LONG_OUTPUT.1).contains(&r.new_tokens));
            assert!(
                r.prompt.len() + r.new_tokens <= 512,
                "fits the model context"
            );
            assert!(r.prompt.iter().all(|&t| t < 64));
        }
        let w = eval_window(3);
        assert_eq!(w.len(), EVAL_WINDOW);
        assert!(w.iter().all(|&t| t < 64));
    }
}
