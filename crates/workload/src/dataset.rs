//! Synthetic multi-turn conversation datasets calibrated to Table 2.
//!
//! Turn counts follow a shifted geometric distribution and token lengths a
//! log-normal, both parameterized so the *means* match the paper's
//! dataset statistics. A conversation is truncated once its cumulative
//! context would exceed the 16,384-token cap the paper applies (§6.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One conversation turn: a user prompt and the assistant's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Turn {
    /// User prompt length in tokens.
    pub input_tokens: usize,
    /// Response length in tokens.
    pub output_tokens: usize,
}

/// A multi-turn conversation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conversation {
    /// The turns, in order.
    pub turns: Vec<Turn>,
}

impl Conversation {
    /// Total tokens accumulated by the end of the conversation.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.turns
            .iter()
            .map(|t| t.input_tokens + t.output_tokens)
            .sum()
    }
}

/// Statistical profile of a dataset (paper Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Mean number of turns per conversation.
    pub mean_turns: f64,
    /// Mean request input (prompt) length in tokens.
    pub mean_input: f64,
    /// Mean request output length in tokens.
    pub mean_output: f64,
    /// Maximum context size; longer conversations are truncated.
    pub max_context: usize,
    /// Log-normal shape parameter for length distributions (ShareGPT's
    /// real lengths are heavy-tailed; UltraChat's synthetic ones less so).
    pub length_sigma: f64,
    /// Tokens of a preamble every conversation shares verbatim (tool
    /// instructions, RAG context). Counts toward `max_context` but adds
    /// no turn: the driver submits it as pre-existing history, so a
    /// content-addressed cache stores it once for the whole fleet.
    /// Defaults to 0 (absent in older serialized specs).
    #[serde(default)]
    pub preamble_tokens: usize,
}

impl DatasetSpec {
    /// ShareGPT: real user-shared ChatGPT conversations
    /// (Table 2, column 1).
    #[must_use]
    pub fn sharegpt() -> Self {
        DatasetSpec {
            name: "ShareGPT".to_owned(),
            mean_turns: 5.56,
            mean_input: 37.77,
            mean_output: 204.58,
            max_context: 16_384,
            length_sigma: 1.0,
            preamble_tokens: 0,
        }
    }

    /// UltraChat: large-scale synthetic dialogue (Table 2, column 2).
    #[must_use]
    pub fn ultrachat() -> Self {
        DatasetSpec {
            name: "UltraChat".to_owned(),
            mean_turns: 3.86,
            mean_input: 51.78,
            mean_output: 257.81,
            max_context: 16_384,
            length_sigma: 0.6,
            preamble_tokens: 0,
        }
    }

    /// Agentic fleet: K agents spun up from the *same* tool preamble,
    /// exchanging many short tool-call turns. The preamble (clamped to
    /// the 1–2k-token range typical of tool manifests) dominates each
    /// agent's context, so a per-conversation cache stores it K times
    /// while a content-addressed cache stores it once — this is the
    /// workload `bench_sharing` measures dedup on.
    #[must_use]
    pub fn agentic(preamble_tokens: usize) -> Self {
        DatasetSpec {
            name: "Agentic".to_owned(),
            mean_turns: 8.0,
            mean_input: 48.0,
            mean_output: 96.0,
            max_context: 16_384,
            length_sigma: 0.4,
            preamble_tokens: preamble_tokens.clamp(1024, 2048),
        }
    }

    /// Samples `n` conversations with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec's means are not positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use pensieve_workload::dataset::{DatasetSpec, DatasetStats};
    ///
    /// let convs = DatasetSpec::sharegpt().generate(500, 7);
    /// let stats = DatasetStats::measure(&convs);
    /// assert!((stats.mean_turns - 5.56).abs() < 1.5);
    /// ```
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Conversation> {
        assert!(self.mean_turns >= 1.0 && self.mean_input > 0.0 && self.mean_output > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample_conversation(&mut rng)).collect()
    }

    fn sample_conversation(&self, rng: &mut StdRng) -> Conversation {
        // Shifted geometric: turns = 1 + Geom(p), so E[turns] = 1 + (1-p)/p
        // = mean  =>  p = 1 / mean.
        let p = 1.0 / self.mean_turns;
        let mut turns = Vec::new();
        // The shared preamble occupies context from turn one.
        let mut total = self.preamble_tokens;
        loop {
            let input = self.sample_length(rng, self.mean_input);
            let output = self.sample_length(rng, self.mean_output);
            // Truncate at the paper's context cap.
            if total + input + output > self.max_context {
                if turns.is_empty() {
                    // Clamp a pathological first turn so every
                    // conversation has at least one servable request
                    // (within the context left over after the preamble).
                    let budget = self.max_context.saturating_sub(self.preamble_tokens);
                    let input = input.min(budget / 4).max(1);
                    let output = budget.saturating_sub(input).min(output).max(1);
                    turns.push(Turn {
                        input_tokens: input,
                        output_tokens: output,
                    });
                }
                break;
            }
            turns.push(Turn {
                input_tokens: input,
                output_tokens: output,
            });
            total += input + output;
            if rng.random::<f64>() < p {
                break;
            }
        }
        Conversation { turns }
    }

    /// Log-normal sample with the requested mean and `length_sigma` shape,
    /// clamped to at least one token.
    fn sample_length(&self, rng: &mut StdRng, mean: f64) -> usize {
        let sigma = self.length_sigma;
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean.
        let mu = mean.ln() - sigma * sigma / 2.0;
        // Box-Muller standard normal.
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (mu + sigma * z).exp();
        (v.round() as usize).max(1)
    }
}

/// Empirical statistics of a conversation set, Table-2 style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of conversations.
    pub conversations: usize,
    /// Mean turns per conversation.
    pub mean_turns: f64,
    /// Mean request input length.
    pub mean_input: f64,
    /// Mean request output length.
    pub mean_output: f64,
}

impl DatasetStats {
    /// Computes statistics over `convs`.
    ///
    /// # Panics
    ///
    /// Panics if `convs` is empty.
    #[must_use]
    pub fn measure(convs: &[Conversation]) -> Self {
        assert!(!convs.is_empty());
        let total_turns: usize = convs.iter().map(|c| c.turns.len()).sum();
        let total_input: usize = convs
            .iter()
            .flat_map(|c| &c.turns)
            .map(|t| t.input_tokens)
            .sum();
        let total_output: usize = convs
            .iter()
            .flat_map(|c| &c.turns)
            .map(|t| t.output_tokens)
            .sum();
        DatasetStats {
            conversations: convs.len(),
            mean_turns: total_turns as f64 / convs.len() as f64,
            mean_input: total_input as f64 / total_turns as f64,
            mean_output: total_output as f64 / total_turns as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generated statistics must track Table 2 within sampling error.
    /// (Truncation at 16K pulls the means slightly below the targets.)
    #[test]
    fn sharegpt_statistics_match_table2() {
        let convs = DatasetSpec::sharegpt().generate(4000, 1);
        let s = DatasetStats::measure(&convs);
        assert!(
            (s.mean_turns - 5.56).abs() < 0.8,
            "mean turns {}",
            s.mean_turns
        );
        assert!(
            (s.mean_input - 37.77) / 37.77 < 0.15,
            "mean input {}",
            s.mean_input
        );
        assert!(
            (s.mean_output - 204.58) / 204.58 < 0.15,
            "mean output {}",
            s.mean_output
        );
    }

    #[test]
    fn ultrachat_statistics_match_table2() {
        let convs = DatasetSpec::ultrachat().generate(4000, 2);
        let s = DatasetStats::measure(&convs);
        assert!(
            (s.mean_turns - 3.86).abs() < 0.6,
            "mean turns {}",
            s.mean_turns
        );
        assert!(
            (s.mean_input - 51.78).abs() / 51.78 < 0.15,
            "mean input {}",
            s.mean_input
        );
        assert!(
            (s.mean_output - 257.81).abs() / 257.81 < 0.15,
            "mean output {}",
            s.mean_output
        );
    }

    #[test]
    fn context_cap_is_respected() {
        let convs = DatasetSpec::sharegpt().generate(2000, 3);
        for c in &convs {
            assert!(c.total_tokens() <= 16_384, "conversation exceeds cap");
            assert!(!c.turns.is_empty());
            for t in &c.turns {
                assert!(t.input_tokens >= 1 && t.output_tokens >= 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = DatasetSpec::sharegpt().generate(50, 7);
        let b = DatasetSpec::sharegpt().generate(50, 7);
        let c = DatasetSpec::sharegpt().generate(50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The agentic preset budgets its shared preamble inside the context
    /// cap and stays deterministic per seed.
    #[test]
    fn agentic_preset_accounts_for_preamble() {
        let spec = DatasetSpec::agentic(1536);
        assert_eq!(spec.preamble_tokens, 1536);
        assert_eq!(DatasetSpec::agentic(10).preamble_tokens, 1024, "clamped up");
        assert_eq!(
            DatasetSpec::agentic(50_000).preamble_tokens,
            2048,
            "clamped down"
        );
        let convs = spec.generate(500, 5);
        for c in &convs {
            assert!(
                spec.preamble_tokens + c.total_tokens() <= spec.max_context,
                "preamble plus turns exceed the context cap"
            );
            assert!(!c.turns.is_empty());
        }
        assert_eq!(convs, spec.generate(500, 5));
    }

    /// Older serialized specs (no `preamble_tokens` field) still load.
    #[test]
    fn preamble_field_defaults_when_absent() {
        let json = r#"{"name":"Old","mean_turns":2.0,"mean_input":10.0,
            "mean_output":20.0,"max_context":4096,"length_sigma":0.5}"#;
        let spec: DatasetSpec = serde_json::from_str(json).expect("legacy spec parses");
        assert_eq!(spec.preamble_tokens, 0);
    }

    /// ShareGPT has more turns than UltraChat — the property §6.2 uses to
    /// explain Pensieve's larger gains on ShareGPT.
    #[test]
    fn sharegpt_has_more_turns_than_ultrachat() {
        let s = DatasetStats::measure(&DatasetSpec::sharegpt().generate(3000, 4));
        let u = DatasetStats::measure(&DatasetSpec::ultrachat().generate(3000, 4));
        assert!(s.mean_turns > u.mean_turns);
    }
}
