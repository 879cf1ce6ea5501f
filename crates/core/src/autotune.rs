//! Shape-bucketed schedule autotuning: search space, persistent cache,
//! and the search driver.
//!
//! CoRa's schedules (loop order, tiling, block-axis remapping) are
//! hand-picked everywhere else in this workspace. This module adds the
//! search layer sketched by FTuner's insight for dynamic shapes: ragged
//! batches are keyed by a *shape bucket* — the histogram class of their
//! sequence lengths, not the exact length multiset — so one tuning run
//! amortizes over every unseen batch that falls in the same class.
//!
//! The pieces, bottom-up:
//!
//! * [`BucketKey`] — a stable, permutation-invariant histogram class of
//!   a batch's sequence lengths (power-of-two length bins), prefixed by
//!   a caller-chosen model descriptor.
//! * [`StageChoice`] / [`StageSpace`] — one point in, and the
//!   per-operator enumeration of, the schedule space: loop `reorder`,
//!   an optional `split` (tiling), and the block-axis
//!   [`RemapPolicy`] (read only when blocks are dispatched in
//!   parallel, so a measurer that scores serial runs cannot rank it).
//!   Every choice a space emits must be value-preserving for its
//!   operator (the differential test suite locks tuned against default
//!   bit-for-bit under Strict math).
//! * [`TuningCache`] — a versioned JSON cache of winning choices keyed
//!   by bucket, with *robust* loads: an unknown schema version or a
//!   malformed entry is reported (log-and-retune), never a panic and
//!   never a silently applied stale schedule.
//! * [`Autotuner`] — the search driver: seeded candidate order, a
//!   [`TuneBudget`] trial cap, and strictly deterministic selection
//!   (lowest score wins; ties break on the candidate's declared index).
//!   It reads no clock: given a deterministic measurer the search is
//!   deterministic by construction.
//!
//! # Example
//!
//! Tuning one toy "stage" whose candidates have known scores. The
//! driver is generic over how candidates are measured (the encoder
//! scores the compiled VM's run statistics):
//!
//! ```
//! use cora_core::autotune::{Autotuner, StageChoice, StageSpace, TuneBudget};
//!
//! // Candidate 0 is the hand-picked default; 2 is secretly the best.
//! let space = StageSpace::new(
//!     "proj",
//!     vec![
//!         StageChoice::default_choice(),
//!         StageChoice::default_choice().with_split("c", 8),
//!         StageChoice::default_choice().with_reorder(&["r", "c", "d"]),
//!     ],
//! );
//! let tuner = Autotuner::new(TuneBudget::trials(16), 42);
//! let scores = [3.0, 5.0, 1.0];
//! // The measurement: lower is better.
//! let result = tuner.tune_stage(&space, |idx, _choice| Some(scores[idx]));
//! assert_eq!(result.best, 2);
//! assert_eq!(result.measured, 3);
//! // The winning choice serializes into the tuning cache as plain JSON.
//! assert!(space.choices()[result.best].to_json().contains("reorder"));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::schedule::RemapPolicy;

/// Version stamp of the tuning-cache file format. Bump on any change to
/// the serialized shape; readers refuse (and re-tune) on mismatch.
pub const CACHE_SCHEMA: u32 = 2;

// ---------------------------------------------------------------------
// Minimal dependency-free JSON reader for the cache file.
// ---------------------------------------------------------------------

/// A parsed JSON value (reader subset; the cache only needs objects,
/// arrays, strings and numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, s: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 number".to_string())?;
                s.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number `{s}` at offset {start}"))
            }
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "non-utf8 string".to_string())?,
                    );
                }
            }
        }
    }
}

fn write_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Bucket keys
// ---------------------------------------------------------------------

/// The histogram class of one sequence length: 0 for empty sequences,
/// otherwise `floor(log2(len)) + 1` — power-of-two length bins
/// (`[1]`, `[2,3]`, `[4,7]`, `[8,15]`, …). Resampling a length within
/// its bin never changes its class.
pub fn length_class(len: usize) -> u32 {
    if len == 0 {
        0
    } else {
        usize::BITS - len.leading_zeros()
    }
}

/// A shape-bucket key: the FTuner-style histogram class of a ragged
/// batch. Two batches map to the same key iff they have the same model
/// descriptor and the same number of sequences in every
/// [`length_class`] bin — independent of sequence order and of the
/// exact lengths within a bin.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// Caller-chosen model/config descriptor (hidden size, heads, math
    /// mode, …) — schedules tuned for one model never apply to another.
    model: String,
    /// `(length class, sequence count)`, ascending by class, zero
    /// counts omitted.
    hist: Vec<(u32, usize)>,
}

impl BucketKey {
    /// Builds the key for a batch of sequence lengths.
    pub fn new(model: impl Into<String>, lens: &[usize]) -> BucketKey {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for &l in lens {
            *counts.entry(length_class(l)).or_insert(0) += 1;
        }
        BucketKey {
            model: model.into(),
            hist: counts.into_iter().collect(),
        }
    }

    /// The model descriptor.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The `(class, count)` histogram, ascending by class.
    pub fn histogram(&self) -> &[(u32, usize)] {
        &self.hist
    }
}

impl fmt::Display for BucketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|", self.model)?;
        for (i, (class, count)) in self.hist.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "c{class}:{count}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Schedule choices and spaces
// ---------------------------------------------------------------------

/// One point in a stage's schedule space: the tunable knobs layered on
/// top of the operator's fixed structure (its block-axis binding stays
/// whatever the stage declares). `None` fields mean "keep the
/// operator's hand-picked default for that knob".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StageChoice {
    /// Loop-nest permutation (outermost first), or the default order.
    pub reorder: Option<Vec<String>>,
    /// `(loop, factor)` tiling split, applied after the reorder.
    pub split: Option<(String, usize)>,
    /// Block-axis dispatch policy, or the stage's default.
    pub remap: Option<RemapPolicy>,
}

impl StageChoice {
    /// The hand-picked default: every knob untouched.
    pub fn default_choice() -> StageChoice {
        StageChoice::default()
    }

    /// True when every knob is the default (candidate 0 of any space).
    pub fn is_default(&self) -> bool {
        self.reorder.is_none() && self.split.is_none() && self.remap.is_none()
    }

    /// Sets the loop order (outermost first).
    pub fn with_reorder(mut self, order: &[&str]) -> StageChoice {
        self.reorder = Some(order.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sets a tiling split.
    pub fn with_split(mut self, loop_name: &str, factor: usize) -> StageChoice {
        self.split = Some((loop_name.to_string(), factor));
        self
    }

    /// Sets the block-axis remap policy.
    pub fn with_remap(mut self, remap: RemapPolicy) -> StageChoice {
        self.remap = Some(remap);
        self
    }

    /// Serializes the choice as a stable JSON object (sorted knobs,
    /// defaults omitted — the empty object is the default choice).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |out: &mut String, key: &str, val: String| {
            if !first {
                out.push(',');
            }
            first = false;
            write_json_escaped(out, key);
            out.push(':');
            out.push_str(&val);
        };
        if let Some(remap) = self.remap {
            let mut v = String::new();
            write_json_escaped(&mut v, remap_name(remap));
            field(&mut out, "remap", v);
        }
        if let Some(order) = &self.reorder {
            let mut v = String::from("[");
            for (i, name) in order.iter().enumerate() {
                if i > 0 {
                    v.push(',');
                }
                write_json_escaped(&mut v, name);
            }
            v.push(']');
            field(&mut out, "reorder", v);
        }
        if let Some((name, factor)) = &self.split {
            let mut v = String::from("[");
            write_json_escaped(&mut v, name);
            v.push_str(&format!(",{factor}]"));
            field(&mut out, "split", v);
        }
        out.push('}');
        out
    }

    /// Deserializes a choice from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field. Unknown fields are
    /// rejected (schema drift must trigger a re-tune, not a silent
    /// partial application).
    pub fn from_json(v: &JsonValue) -> Result<StageChoice, String> {
        let fields = v.as_obj().ok_or("stage choice is not an object")?;
        let mut choice = StageChoice::default();
        for (key, val) in fields {
            match key.as_str() {
                "remap" => {
                    let name = val.as_str().ok_or("remap is not a string")?;
                    choice.remap = Some(remap_from_name(name)?);
                }
                "reorder" => {
                    let JsonValue::Arr(items) = val else {
                        return Err("reorder is not an array".to_string());
                    };
                    let mut order = Vec::with_capacity(items.len());
                    for item in items {
                        order.push(
                            item.as_str()
                                .ok_or("reorder entry is not a string")?
                                .to_string(),
                        );
                    }
                    choice.reorder = Some(order);
                }
                "split" => {
                    let JsonValue::Arr(items) = val else {
                        return Err("split is not an array".to_string());
                    };
                    if items.len() != 2 {
                        return Err("split is not a [loop, factor] pair".to_string());
                    }
                    let name = items[0].as_str().ok_or("split loop is not a string")?;
                    let factor = items[1].as_num().ok_or("split factor is not a number")?;
                    if factor < 1.0 || factor.fract() != 0.0 || factor > u32::MAX as f64 {
                        return Err(format!("split factor {factor} is not a positive integer"));
                    }
                    choice.split = Some((name.to_string(), factor as usize));
                }
                other => return Err(format!("unknown stage-choice field `{other}`")),
            }
        }
        Ok(choice)
    }
}

fn remap_name(remap: RemapPolicy) -> &'static str {
    match remap {
        RemapPolicy::Identity => "identity",
        RemapPolicy::LongestFirst => "longest_first",
        RemapPolicy::Reversed => "reversed",
    }
}

fn remap_from_name(name: &str) -> Result<RemapPolicy, String> {
    match name {
        "identity" => Ok(RemapPolicy::Identity),
        "longest_first" => Ok(RemapPolicy::LongestFirst),
        "reversed" => Ok(RemapPolicy::Reversed),
        other => Err(format!("unknown remap policy `{other}`")),
    }
}

/// The enumerable schedule space of one pipeline stage. Candidate 0 is
/// always the hand-picked default — the fallback the search can never
/// do worse than.
#[derive(Debug, Clone)]
pub struct StageSpace {
    stage: String,
    choices: Vec<StageChoice>,
}

impl StageSpace {
    /// Declares a stage's candidates. The first must be the default.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or `choices[0]` is not the default
    /// choice (the fallback guarantee depends on it).
    pub fn new(stage: impl Into<String>, choices: Vec<StageChoice>) -> StageSpace {
        assert!(!choices.is_empty(), "a stage space needs candidates");
        assert!(
            choices[0].is_default(),
            "candidate 0 must be the hand-picked default"
        );
        StageSpace {
            stage: stage.into(),
            choices,
        }
    }

    /// The stage label the space tunes.
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// The candidates, default first.
    pub fn choices(&self) -> &[StageChoice] {
        &self.choices
    }
}

// ---------------------------------------------------------------------
// Tuning cache
// ---------------------------------------------------------------------

/// The winning schedule of one bucket: per-stage choices plus metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheEntry {
    /// Winning choice per tuned stage label.
    pub stages: BTreeMap<String, StageChoice>,
    /// Search trials spent producing the entry.
    pub trials: usize,
}

/// Outcome of loading a cache file — surfaced so callers can
/// log-and-retune instead of trusting a bad file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoad {
    /// File parsed; contains this many entries.
    Loaded(usize),
    /// No cache file at the path (first run).
    Missing,
    /// The file's schema version is not [`CACHE_SCHEMA`].
    UnknownVersion(String),
    /// The file or one of its entries failed to parse; the description
    /// says which. The cache starts empty — every bucket re-tunes.
    Malformed(String),
}

impl CacheLoad {
    /// True when the cache contents are usable as loaded.
    pub fn is_usable(&self) -> bool {
        matches!(self, CacheLoad::Loaded(_) | CacheLoad::Missing)
    }
}

/// A persistent map from [`BucketKey`] to winning schedules, serialized
/// as versioned JSON with deterministic (sorted-key) output: two
/// tuning runs that choose the same schedules write byte-identical
/// files.
#[derive(Debug, Clone, Default)]
pub struct TuningCache {
    entries: BTreeMap<String, CacheEntry>,
}

impl TuningCache {
    /// An empty cache.
    pub fn new() -> TuningCache {
        TuningCache::default()
    }

    /// Number of buckets cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no bucket is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a bucket.
    pub fn get(&self, key: &BucketKey) -> Option<&CacheEntry> {
        self.entries.get(&key.to_string())
    }

    /// Inserts (or replaces) a bucket's entry.
    pub fn insert(&mut self, key: &BucketKey, entry: CacheEntry) {
        self.entries.insert(key.to_string(), entry);
    }

    /// The cached buckets, sorted by key.
    pub fn buckets(&self) -> impl Iterator<Item = (&str, &CacheEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes the cache deterministically (sorted buckets, sorted
    /// stages, fixed field order, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {CACHE_SCHEMA},\n"));
        out.push_str("  \"entries\": {");
        for (i, (bucket, entry)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_escaped(&mut out, bucket);
            out.push_str(&format!(": {{\"trials\": {}, \"stages\": {{", entry.trials));
            for (j, (stage, choice)) in entry.stages.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_escaped(&mut out, stage);
                out.push_str(": ");
                out.push_str(&choice.to_json());
            }
            out.push_str("}}");
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a serialized cache.
    ///
    /// # Errors
    ///
    /// Returns [`CacheLoad::UnknownVersion`] / [`CacheLoad::Malformed`]
    /// descriptions via `Err` — the caller decides to re-tune.
    pub fn parse(text: &str) -> Result<TuningCache, CacheLoad> {
        let root =
            JsonValue::parse(text).map_err(|e| CacheLoad::Malformed(format!("json: {e}")))?;
        let schema = root
            .get("schema")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| CacheLoad::Malformed("missing `schema` field".to_string()))?;
        if schema != CACHE_SCHEMA as f64 {
            return Err(CacheLoad::UnknownVersion(format!(
                "cache schema {schema} (supported: {CACHE_SCHEMA})"
            )));
        }
        let entries = root
            .get("entries")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| CacheLoad::Malformed("missing `entries` object".to_string()))?;
        let mut cache = TuningCache::new();
        for (bucket, entry) in entries {
            let bad = |what: &str| CacheLoad::Malformed(format!("bucket `{bucket}`: {what}"));
            let trials = entry
                .get("trials")
                .and_then(JsonValue::as_num)
                .filter(|t| *t >= 0.0 && t.fract() == 0.0)
                .ok_or_else(|| bad("missing or non-integral `trials`"))?
                as usize;
            let stages_obj = entry
                .get("stages")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| bad("missing `stages` object"))?;
            let mut stages = BTreeMap::new();
            for (stage, choice) in stages_obj {
                let choice = StageChoice::from_json(choice)
                    .map_err(|e| bad(&format!("stage `{stage}`: {e}")))?;
                stages.insert(stage.clone(), choice);
            }
            cache
                .entries
                .insert(bucket.clone(), CacheEntry { stages, trials });
        }
        Ok(cache)
    }

    /// Loads a cache file robustly: any problem (missing file, version
    /// mismatch, malformed contents) yields an *empty* cache plus the
    /// [`CacheLoad`] describing why — log-and-retune, never panic,
    /// never a silently applied stale schedule.
    pub fn load(path: &Path) -> (TuningCache, CacheLoad) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (TuningCache::new(), CacheLoad::Missing)
            }
            Err(e) => return (TuningCache::new(), CacheLoad::Malformed(format!("io: {e}"))),
        };
        match TuningCache::parse(&text) {
            Ok(cache) => {
                let n = cache.len();
                (cache, CacheLoad::Loaded(n))
            }
            Err(status) => (TuningCache::new(), status),
        }
    }

    /// Writes the cache to `path` (parent directories created).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }
}

// ---------------------------------------------------------------------
// Budget and search driver
// ---------------------------------------------------------------------

/// The cap on one tuning run: a hard trial count. There is no time cap
/// — a clock in the loop could truncate two identically seeded runs
/// differently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneBudget {
    /// Maximum measured candidates across the whole tuning run
    /// (defaults are always measured and count against this).
    pub max_trials: usize,
}

impl TuneBudget {
    /// A trial-count budget.
    pub fn trials(max_trials: usize) -> TuneBudget {
        TuneBudget { max_trials }
    }

    /// Accepted and ignored: the search reads no clock, so there is
    /// nothing for a time cap to bound. Kept only because the benchmark
    /// (`perf_ledger`) calls it.
    pub fn with_max_ms(self, _ms: f64) -> TuneBudget {
        self
    }
}

impl Default for TuneBudget {
    /// 64 trials.
    fn default() -> TuneBudget {
        TuneBudget::trials(64)
    }
}

/// Per-stage search outcome.
#[derive(Debug, Clone)]
pub struct StageTuneResult {
    /// Stage label.
    pub stage: String,
    /// Winning candidate index (into the space's choices; 0 = default).
    pub best: usize,
    /// Winning candidate's measured score.
    pub best_score: f64,
    /// The default candidate's measured score (the fallback baseline).
    pub default_score: f64,
    /// Candidates actually measured.
    pub measured: usize,
    /// Candidates skipped because the budget ran out.
    pub skipped: usize,
}

/// The schedule-space search driver.
///
/// Selection is strictly deterministic given deterministic measurements:
/// candidates are visited in a seeded order (default always first, so a
/// baseline always exists) and the winner is the lowest
/// `(score, candidate index)` pair — index breaks ties. Because the
/// default is always measured and always eligible, the chosen schedule
/// can never score worse than the hand-picked one under the measurer in
/// use.
#[derive(Debug, Clone)]
pub struct Autotuner {
    /// Trial cap.
    pub budget: TuneBudget,
    /// Seed for the candidate visit order.
    pub seed: u64,
}

impl Autotuner {
    /// A tuner with the given budget and seed.
    pub fn new(budget: TuneBudget, seed: u64) -> Autotuner {
        Autotuner { budget, seed }
    }

    /// Searches one stage space.
    ///
    /// `measure` returns the candidate's score (lower is better) or
    /// `None` when the candidate fails to build, which disqualifies it.
    /// The returned [`StageTuneResult::best`] is always a measured
    /// candidate, and the default (candidate 0) is always measured
    /// first.
    pub fn tune_stage(
        &self,
        space: &StageSpace,
        mut measure: impl FnMut(usize, &StageChoice) -> Option<f64>,
    ) -> StageTuneResult {
        let choices = space.choices();

        // Seeded visit order over the non-default candidates; the
        // default is always visited first so a baseline always exists.
        let mut order: Vec<usize> = (1..choices.len()).collect();
        seeded_shuffle(&mut order, self.seed ^ hash_str(space.stage()));
        let mut visit = Vec::with_capacity(choices.len());
        visit.push(0usize);
        visit.extend(order);

        let mut result = StageTuneResult {
            stage: space.stage().to_string(),
            best: 0,
            best_score: f64::INFINITY,
            default_score: f64::INFINITY,
            measured: 0,
            skipped: 0,
        };
        let mut best: Option<(f64, usize)> = None;
        for &idx in &visit {
            let is_default = idx == 0;
            if !is_default && result.measured >= self.budget.max_trials {
                result.skipped += 1;
                continue;
            }
            let Some(score) = measure(idx, &choices[idx]) else {
                // Candidate failed to build/run: disqualified.
                continue;
            };
            result.measured += 1;
            if is_default {
                result.default_score = score;
            }
            // Deterministic selection: strictly lower score wins; equal
            // scores keep the lower candidate index (so exact ties keep
            // the default).
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && idx < bi),
            };
            if better {
                best = Some((score, idx));
            }
        }
        let (best_score, best_idx) = best.unwrap_or((f64::INFINITY, 0));
        result.best = best_idx;
        result.best_score = best_score;
        result
    }
}

/// SplitMix64 — the deterministic generator behind the seeded candidate
/// order (no dependency on the vendored `rand` shim, so core stays
/// self-contained).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stage label: stages shuffle independently per seed.
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic Fisher–Yates.
fn seeded_shuffle(items: &mut [usize], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Deterministic pseudo-random float buffer in `[-0.5, 0.5)` for
/// candidate micro-benchmarks (same seed, same data — measurement work
/// is identical run-to-run).
pub fn synthetic_data(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    (0..n)
        .map(|_| ((splitmix64(&mut state) >> 40) as f32) * (1.0 / (1u64 << 24) as f32) - 0.5)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_classes_are_log2_bins() {
        assert_eq!(length_class(0), 0);
        assert_eq!(length_class(1), 1);
        assert_eq!(length_class(2), 2);
        assert_eq!(length_class(3), 2);
        assert_eq!(length_class(4), 3);
        assert_eq!(length_class(7), 3);
        assert_eq!(length_class(8), 4);
        assert_eq!(length_class(127), 7);
        assert_eq!(length_class(128), 8);
    }

    #[test]
    fn bucket_key_is_permutation_invariant_and_binned() {
        let a = BucketKey::new("m", &[5, 0, 9, 3]);
        let b = BucketKey::new("m", &[3, 9, 0, 5]);
        assert_eq!(a, b);
        // Resampling within bins: 5→6 ([4,7]), 9→15 ([8,15]), 3→2.
        let c = BucketKey::new("m", &[6, 0, 15, 2]);
        assert_eq!(a, c);
        // Crossing a bin boundary changes the key.
        let d = BucketKey::new("m", &[8, 0, 9, 3]);
        assert_ne!(a, d);
        // Different model descriptor never collides.
        assert_ne!(a, BucketKey::new("other", &[5, 0, 9, 3]));
        assert_eq!(a.to_string(), "m|c0:1,c2:1,c3:1,c4:1");
    }

    #[test]
    fn stage_choice_json_round_trips() {
        let choices = vec![
            StageChoice::default_choice(),
            StageChoice::default_choice().with_remap(RemapPolicy::LongestFirst),
            StageChoice::default_choice()
                .with_reorder(&["r", "c", "d"])
                .with_split("c", 8)
                .with_remap(RemapPolicy::Reversed),
        ];
        for c in &choices {
            let text = c.to_json();
            let parsed = StageChoice::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(&parsed, c, "round trip failed for {text}");
        }
        assert_eq!(choices[0].to_json(), "{}");
    }

    #[test]
    fn stage_choice_rejects_unknown_fields_and_bad_factors() {
        let bad = JsonValue::parse(r#"{"tile": 8}"#).unwrap();
        assert!(StageChoice::from_json(&bad).unwrap_err().contains("tile"));
        let bad = JsonValue::parse(r#"{"split": ["c", 0]}"#).unwrap();
        assert!(StageChoice::from_json(&bad).is_err());
        let bad = JsonValue::parse(r#"{"split": ["c", 2.5]}"#).unwrap();
        assert!(StageChoice::from_json(&bad).is_err());
        let bad = JsonValue::parse(r#"{"remap": "fastest"}"#).unwrap();
        assert!(StageChoice::from_json(&bad).is_err());
    }

    fn sample_cache() -> (TuningCache, BucketKey) {
        let key = BucketKey::new("enc_h64", &[5, 9, 3]);
        let mut stages = BTreeMap::new();
        stages.insert(
            "qkv_proj".to_string(),
            StageChoice::default_choice().with_reorder(&["r", "d", "c"]),
        );
        stages.insert("scores".to_string(), StageChoice::default_choice());
        let mut cache = TuningCache::new();
        cache.insert(&key, CacheEntry { stages, trials: 7 });
        (cache, key)
    }

    #[test]
    fn cache_round_trips_and_serializes_deterministically() {
        let (cache, key) = sample_cache();
        let text = cache.to_json_string();
        let reparsed = TuningCache::parse(&text).unwrap();
        assert_eq!(reparsed.get(&key), cache.get(&key));
        assert_eq!(reparsed.to_json_string(), text, "stable serialization");
        // Insertion order must not leak into the bytes.
        let mut reordered = TuningCache::new();
        reordered.insert(&BucketKey::new("zz", &[1]), CacheEntry::default());
        reordered.insert(&key, cache.get(&key).unwrap().clone());
        let mut other = TuningCache::new();
        other.insert(&key, cache.get(&key).unwrap().clone());
        other.insert(&BucketKey::new("zz", &[1]), CacheEntry::default());
        assert_eq!(reordered.to_json_string(), other.to_json_string());
    }

    #[test]
    fn cache_load_is_robust_to_corruption() {
        // Unknown version: refuse, report, stay empty.
        let err = TuningCache::parse(r#"{"schema": 99, "entries": {}}"#).unwrap_err();
        assert!(matches!(err, CacheLoad::UnknownVersion(_)), "{err:?}");
        assert!(!err.is_usable());
        // The retired format, whose entries named the measurer that
        // wrote them (one of which no longer exists): refused whole.
        let err = TuningCache::parse(
            r#"{"schema": 1, "entries": {"b": {"measurer": "m", "trials": 1, "stages": {}}}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, CacheLoad::UnknownVersion(_)), "{err:?}");
        // Truncated / invalid JSON.
        let err = TuningCache::parse(r#"{"schema": 2, "entries": {"#).unwrap_err();
        assert!(matches!(err, CacheLoad::Malformed(_)), "{err:?}");
        // Entry missing required fields.
        let err =
            TuningCache::parse(r#"{"schema": 2, "entries": {"b": {"stages": {}}}}"#).unwrap_err();
        assert!(matches!(err, CacheLoad::Malformed(_)), "{err:?}");
        // Entry with a malformed stage choice.
        let err = TuningCache::parse(
            r#"{"schema": 2, "entries": {"b": {"trials": 1, "stages": {"s": {"split": "nope"}}}}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, CacheLoad::Malformed(_)), "{err:?}");
        // Missing schema field entirely.
        let err = TuningCache::parse(r#"{"entries": {}}"#).unwrap_err();
        assert!(matches!(err, CacheLoad::Malformed(_)), "{err:?}");
    }

    #[test]
    fn cache_file_load_statuses() {
        let dir = std::env::temp_dir().join(format!("cora_tune_cache_{}", std::process::id()));
        let path = dir.join("cache.json");
        let _ = std::fs::remove_dir_all(&dir);
        // Missing file: empty cache, Missing status, usable.
        let (cache, status) = TuningCache::load(&path);
        assert!(cache.is_empty());
        assert_eq!(status, CacheLoad::Missing);
        assert!(status.is_usable());
        // Round trip through disk.
        let (cache, key) = sample_cache();
        cache.save(&path).unwrap();
        let (loaded, status) = TuningCache::load(&path);
        assert_eq!(status, CacheLoad::Loaded(1));
        assert_eq!(loaded.get(&key), cache.get(&key));
        // Corrupt the file: load reports malformed and yields empty.
        std::fs::write(&path, "not json at all").unwrap();
        let (loaded, status) = TuningCache::load(&path);
        assert!(loaded.is_empty());
        assert!(matches!(status, CacheLoad::Malformed(_)), "{status:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn toy_space(n: usize) -> StageSpace {
        let mut choices = vec![StageChoice::default_choice()];
        for f in 0..n.saturating_sub(1) {
            choices.push(StageChoice::default_choice().with_split("c", 2 << f));
        }
        StageSpace::new("toy", choices)
    }

    #[test]
    fn search_is_deterministic_and_index_tie_broken() {
        let space = toy_space(5);
        let tuner = Autotuner::new(TuneBudget::trials(16), 7);
        // All candidates tie: the default (index 0) must win.
        let r = tuner.tune_stage(&space, |_, _| Some(2.0));
        assert_eq!(r.best, 0);
        assert_eq!(r.measured, 5);
        assert_eq!(r.default_score, 2.0);
        // A strictly better candidate wins regardless of visit order.
        let scores = [5.0, 4.0, 1.0, 4.0, 1.0];
        let r1 = tuner.tune_stage(&space, |i, _| Some(scores[i]));
        let r2 = tuner.tune_stage(&space, |i, _| Some(scores[i]));
        assert_eq!(r1.best, 2, "equal scores break ties on candidate index");
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.best_score, r2.best_score);
    }

    #[test]
    fn search_stops_at_the_trial_budget() {
        let space = toy_space(6);
        // Budget of 2 trials: default + one more measured, the rest
        // skipped.
        let tuner = Autotuner::new(TuneBudget::trials(2), 1);
        let r = tuner.tune_stage(&space, |_, _| Some(1.0));
        assert_eq!(r.measured, 2);
        assert_eq!(r.skipped, 4);
        assert_eq!(r.best, 0, "ties keep the default");
        // The default is measured even when the budget is already spent.
        let tuner = Autotuner::new(TuneBudget::trials(0), 1);
        let r = tuner.tune_stage(&space, |_, _| Some(1.0));
        assert_eq!(r.measured, 1);
        assert_eq!(r.skipped, 5);
        assert_eq!(r.default_score, 1.0);
    }

    #[test]
    fn failed_candidates_are_disqualified() {
        let space = toy_space(3);
        let tuner = Autotuner::new(TuneBudget::default(), 3);
        // Every non-default candidate fails to build.
        let r = tuner.tune_stage(&space, |i, _| (i == 0).then_some(4.0));
        assert_eq!(r.best, 0);
        assert_eq!(r.measured, 1);
    }

    #[test]
    fn synthetic_data_is_deterministic() {
        assert_eq!(synthetic_data(16, 9), synthetic_data(16, 9));
        assert_ne!(synthetic_data(16, 9), synthetic_data(16, 10));
        assert!(synthetic_data(256, 1)
            .iter()
            .all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn json_parser_handles_the_cache_subset() {
        let v = JsonValue::parse(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": true}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-25.0),
                JsonValue::Str("x\n\"yA".to_string()),
            ])
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap(),
            &JsonValue::Bool(true)
        );
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
    }
}
