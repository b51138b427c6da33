//! Leveled structured logging on stderr.
//!
//! One line per record, `key=value` style, always on **stderr** so piped
//! JSON/CSV on stdout stays clean:
//!
//! ```text
//! level=info campaign=table2-quick done=12/36 rate=3.1/s eta=8s
//! ```
//!
//! The threshold comes from `--log-level`, else `OFFCHIP_LOG`, else
//! `info`. Call sites use the [`error!`](crate::error!) /
//! [`warn!`](crate::warn!) / [`info!`](crate::info!) /
//! [`debug!`](crate::debug!) macros, which skip all formatting when the
//! record is below threshold.
//!
//! A record written inside a trace context ([`current`](crate::current))
//! carries the trace id: a ` trace=<id>` suffix on a key-value line.
//!
//! # Structured JSON mode
//!
//! `--log-format json` (else `OFFCHIP_LOG_FORMAT=json`) switches every
//! record to one JSON object per line, with the trace id as a `"trace"`
//! field:
//!
//! ```text
//! {"level":"info","trace":"0000000000100000","msg":"campaign=serve-uma-CG.S done=12/36"}
//! ```
//!
//! The message is escaped per JSON string rules (quotes, backslashes,
//! control characters as `\u00XX`).

use std::sync::atomic::{AtomicU8, Ordering};

/// Severity of a log record; also the reporting threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Degraded-but-continuing conditions (lost points, journal damage).
    Warn = 1,
    /// Progress: sweep timings, campaign heartbeats, resume status.
    Info = 2,
    /// Per-point detail useful when debugging a campaign.
    Debug = 3,
}

impl LogLevel {
    /// Parses `error`/`warn`/`info`/`debug` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// The flag/env spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Error,
            1 => LogLevel::Warn,
            3 => LogLevel::Debug,
            _ => LogLevel::Info,
        }
    }
}

impl std::fmt::Display for LogLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const UNSET: u8 = u8::MAX;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNSET);

/// The active log threshold. First call resolves `OFFCHIP_LOG` (unset or
/// unparseable → `Info`); later calls are one relaxed load.
pub fn log_level() -> LogLevel {
    let raw = THRESHOLD.load(Ordering::Relaxed);
    if raw != UNSET {
        return LogLevel::from_u8(raw);
    }
    let resolved = std::env::var("OFFCHIP_LOG")
        .ok()
        .and_then(|v| LogLevel::parse(&v))
        .unwrap_or(LogLevel::Info);
    THRESHOLD.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Forces the log threshold (CLI flags beat the environment).
pub fn set_log_level(l: LogLevel) {
    THRESHOLD.store(l as u8, Ordering::Relaxed);
}

/// True when records at `level` should be emitted. The macros call this
/// before doing any formatting work.
#[inline]
pub fn log_enabled(level: LogLevel) -> bool {
    level <= log_level()
}

/// Output shape of log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LogFormat {
    /// One `key=value` line per record (the default).
    KeyValue = 0,
    /// One JSON object per line, stamped with the active trace id.
    Json = 1,
}

impl LogFormat {
    /// Parses `kv`/`keyvalue`/`text` or `json` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s.to_ascii_lowercase().as_str() {
            "kv" | "keyvalue" | "key-value" | "text" => Some(LogFormat::KeyValue),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }

    /// The flag/env spelling of this format.
    pub fn as_str(self) -> &'static str {
        match self {
            LogFormat::KeyValue => "kv",
            LogFormat::Json => "json",
        }
    }
}

static FORMAT: AtomicU8 = AtomicU8::new(UNSET);

/// The active log format. First call resolves `OFFCHIP_LOG_FORMAT` (unset
/// or unparseable → `kv`); later calls are one relaxed load.
pub fn log_format() -> LogFormat {
    match FORMAT.load(Ordering::Relaxed) {
        0 => LogFormat::KeyValue,
        1 => LogFormat::Json,
        _ => {
            let resolved = std::env::var("OFFCHIP_LOG_FORMAT")
                .ok()
                .and_then(|v| LogFormat::parse(&v))
                .unwrap_or(LogFormat::KeyValue);
            FORMAT.store(resolved as u8, Ordering::Relaxed);
            resolved
        }
    }
}

/// Forces the log format (CLI flags beat the environment).
pub fn set_log_format(f: LogFormat) {
    FORMAT.store(f as u8, Ordering::Relaxed);
}

/// Escapes `s` for inclusion inside a JSON string literal: `"` and `\`
/// are backslash-escaped, control characters become `\u00XX`.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

pub(crate) fn json_escape_into(out: &mut String, s: &str) {
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
}

/// Writes one record to stderr. Use the macros instead of calling this
/// directly so disabled levels cost only the threshold check.
///
/// The record carries the thread's trace id (when in a trace context) so
/// a `grep` for the id over the log reconstructs one request's story
/// across server, cache and campaign threads.
pub fn log_emit(level: LogLevel, args: std::fmt::Arguments<'_>) {
    let trace = crate::trace::current().trace;
    match log_format() {
        LogFormat::KeyValue if trace == 0 => eprintln!("level={} {}", level.as_str(), args),
        LogFormat::KeyValue => eprintln!("level={} {} trace={trace:016x}", level.as_str(), args),
        LogFormat::Json => {
            let msg = json_escape(&args.to_string());
            if trace == 0 {
                eprintln!("{{\"level\":\"{}\",\"msg\":\"{msg}\"}}", level.as_str());
            } else {
                eprintln!(
                    "{{\"level\":\"{}\",\"trace\":\"{trace:016x}\",\"msg\":\"{msg}\"}}",
                    level.as_str()
                );
            }
        }
    }
}

/// Logs at `Error` level.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::LogLevel::Error) {
            $crate::log_emit($crate::LogLevel::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at `Warn` level.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::LogLevel::Warn) {
            $crate::log_emit($crate::LogLevel::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at `Info` level.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::LogLevel::Info) {
            $crate::log_emit($crate::LogLevel::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at `Debug` level.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::LogLevel::Debug) {
            $crate::log_emit($crate::LogLevel::Debug, format_args!($($arg)*));
        }
    };
}

/// Logs at `Warn` level, at most once per `$every` invocations of this
/// call site (the 1st, `$every+1`-th, … fire). Used on per-connection
/// error paths that would otherwise flood the log under load; records go
/// through [`log_emit`], so they honour the structured JSON format and
/// trace stamping like every other record.
#[macro_export]
macro_rules! warn_rate_limited {
    ($every:expr, $($arg:tt)*) => {{
        static __RL_COUNT: ::std::sync::atomic::AtomicU64 =
            ::std::sync::atomic::AtomicU64::new(0);
        let __n = __RL_COUNT.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
        if __n % ($every) == 0 && $crate::log_enabled($crate::LogLevel::Warn) {
            $crate::log_emit($crate::LogLevel::Warn, format_args!($($arg)*));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for l in [
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
        ] {
            assert_eq!(LogLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(LogLevel::parse("WARNING"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn threshold_gates_levels() {
        set_log_level(LogLevel::Warn);
        assert!(log_enabled(LogLevel::Error));
        assert!(log_enabled(LogLevel::Warn));
        assert!(!log_enabled(LogLevel::Info));
        set_log_level(LogLevel::Debug);
        assert!(log_enabled(LogLevel::Debug));
        set_log_level(LogLevel::Info);
    }

    #[test]
    fn macros_compile_with_format_args() {
        set_log_level(LogLevel::Error);
        // Below threshold: must not format (and must still compile).
        crate::info!("k={} v={}", 1, "x");
        crate::debug!("unused={}", 2);
        crate::warn_rate_limited!(64, "suppressed={}", 3);
        set_log_level(LogLevel::Info);
    }

    #[test]
    fn format_parse_round_trips() {
        for f in [LogFormat::KeyValue, LogFormat::Json] {
            assert_eq!(LogFormat::parse(f.as_str()), Some(f));
        }
        assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("text"), Some(LogFormat::KeyValue));
        assert_eq!(LogFormat::parse("xml"), None);
    }

    #[test]
    fn json_escape_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"say "hi" \ bye"#), r#"say \"hi\" \\ bye"#);
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("a\rb"), "a\\rb");
        assert_eq!(json_escape("a\tb"), "a\\tb");
        assert_eq!(json_escape("a\x00b"), "a\\u0000b");
        assert_eq!(json_escape("a\x1bb"), "a\\u001bb");
    }

    #[test]
    fn json_escape_passes_unicode_through() {
        assert_eq!(json_escape("λ µs → done"), "λ µs → done");
    }

    #[test]
    fn every_rendered_record_is_parseable_shape() {
        // The JSON record shape is fixed: {"level":"...","msg":"..."} or
        // with a "trace" field. Assemble one the way log_emit does and
        // sanity-check balanced quoting for hostile input.
        let msg = json_escape("inject\"}{\n\\");
        let line = format!("{{\"level\":\"warn\",\"msg\":\"{msg}\"}}");
        // One record per line, and the hostile quote cannot terminate the
        // msg string early (every raw '"' inside is preceded by '\').
        assert!(!line.contains('\n'));
        assert!(line.contains("inject\\\"}{\\n\\\\"));
        assert!(line.ends_with("\\\\\"}"));
    }
}
