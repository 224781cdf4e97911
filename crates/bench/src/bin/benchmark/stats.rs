//! Small shared utilities: the workload RNG, exact-sample quantiles, the
//! process clocks read from `/proc`, and a minimal JSON value with a
//! parser (the vendored `serde_json` stand-in only serializes).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64 stream for workload choices. Kept separate from the
/// program's own `Rng64` so the benchmark's inputs never depend on how
/// the engine draws its jitter.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next uniform `u64`.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The `j`-th sub-seed of `seed` for workload `tag`: every workload gets
/// its own seed list, and neighbouring `--seed` values share no sub-seed.
pub fn sub_seed(seed: u64, tag: &str, j: u64) -> u64 {
    let mut h = SplitMix(seed ^ 0xC07E_41E5_EED5_0000);
    for b in tag.bytes() {
        h.0 = h.next() ^ u64::from(b);
    }
    h.0 = h.next().wrapping_add(j);
    h.next()
}

/// Quantile of exact integer samples (`sorted` ascending, non-empty).
///
/// Virtual-clock latencies are whole microseconds, so thousands of
/// samples tie at the nearest-rank value. The tie is resolved the way a
/// median of grouped data is: the tied group `v` is spread uniformly over
/// `[v - 0.5, v + 0.5)` and the rank interpolated inside it. The result
/// is within half a microsecond of the nearest-rank quantile and moves
/// smoothly when the share of samples below it moves.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = (q * n as f64).clamp(0.0, n as f64);
    let idx = (rank.ceil() as usize).clamp(1, n) - 1;
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let equal = sorted.partition_point(|&x| x <= v) - below;
    v as f64 - 0.5 + (rank - below as f64) / equal as f64
}

/// Median of a few floats (used across repetitions, not samples).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest and largest of `values` (0, 0 when empty).
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let fold = |f: fn(f64, f64) -> f64| values.iter().copied().reduce(f).unwrap_or(0.0);
    (fold(f64::min), fold(f64::max))
}

/// First and third quartile of `sorted` (ascending, at least two values)
/// as Python's `statistics.quantiles(values, n=4)` gives them — the
/// spread the acceptance rule is stated in.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // The "exclusive" method: position k·(n+1)/4, interpolated.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// CPU seconds the calling thread has run, from its scheduler statistics
/// (nanosecond resolution); `None` where the kernel does not keep them.
/// The virtual host is one thread, so this is its whole cost.
fn thread_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let run_ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(run_ns as f64 / 1e9)
}

/// CPU seconds (user + system) of every thread this process has had,
/// finished ones included, from `/proc/self/stat` — 10 ms ticks, which is
/// 2.5 % of the shortest interval the live host measures.
fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks_per_sec())
}

/// `AT_CLKTCK` from the auxiliary vector (the unit of `utime`/`stime`);
/// 100 when it cannot be read, which is the value on every Linux we know.
fn clock_ticks_per_sec() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte half"));
        let value = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte half"));
        if key == AT_CLKTCK && value > 0 {
            return value as f64;
        }
    }
    100.0
}

/// A CPU stopwatch that falls back to the wall clock without `/proc`.
pub struct CpuClock {
    read: fn() -> Option<f64>,
    cpu: Option<f64>,
    wall: std::time::Instant,
}

impl CpuClock {
    fn start(read: fn() -> Option<f64>) -> Self {
        CpuClock {
            read,
            cpu: read(),
            wall: std::time::Instant::now(),
        }
    }

    /// Starts a stopwatch on the calling thread's CPU time.
    pub fn this_thread() -> Self {
        Self::start(thread_cpu_secs)
    }

    /// Starts a stopwatch on the CPU time of all the process's threads.
    pub fn whole_process() -> Self {
        Self::start(process_cpu_secs)
    }

    /// Seconds of CPU (or wall, as fallback) since the start.
    pub fn elapsed_secs(&self) -> f64 {
        match (self.cpu, (self.read)()) {
            (Some(a), Some(b)) => b - a,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON value. Objects keep insertion order so rendered results are
/// byte-stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Renders on one line. Floats print with Rust's shortest round-trip
    /// form, so every measured digit survives.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let Some(&c) = self.s.get(self.i) else {
            return Err("unexpected end".into());
        };
        match c {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.i));
                    }
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'n' if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// Metric name → value map used for results (sorted, so rendering and
/// comparison are order-independent).
pub type Values = BTreeMap<String, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_ties() {
        let v = [400u64, 400, 400, 400];
        assert!((quantile(&v, 0.5) - 400.0).abs() < 1e-9);
        let mut w = vec![400u64; 90];
        w.extend([500u64; 10]);
        // 99th of 100: falls in the 500 group, 9/10 of the way through it.
        assert!((quantile(&w, 0.99) - (500.0 - 0.5 + 0.9)).abs() < 1e-9);
        assert!(quantile(&w, 0.5) < 400.5 && quantile(&w, 0.5) > 399.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
    }

    #[test]
    fn json_round_trips() {
        let v = obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::Str("x\"y".into())),
        ]);
        assert_eq!(Json::parse(&v.render()), Ok(v));
    }

    #[test]
    fn sub_seeds_differ_by_tag_seed_and_index() {
        let a = sub_seed(1, "w", 0);
        assert_ne!(a, sub_seed(2, "w", 0));
        assert_ne!(a, sub_seed(1, "x", 0));
        assert_ne!(a, sub_seed(1, "w", 1));
        assert_eq!(a, sub_seed(1, "w", 0));
    }
}
