//! `check.toml`: declarative configuration for the semantic pass.
//!
//! The workspace root carries a `check.toml` naming the crate layering
//! DAG and the scopes of the semantic rules. The file is parsed with a
//! deliberately tiny TOML subset reader (sections, `key = [..]` with
//! one-line string-array values, `#` comments) — the registry is
//! unreachable from CI, so no `toml` crate.
//!
//! Missing file ⇒ [`Config::default`]: every semantic rule (layering,
//! panic scope, determinism scope) is simply skipped, which is what the seeded test fixtures
//! without a `check.toml` rely on. Any other read failure is an error,
//! so an unreadable file cannot switch the rules off silently.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::Path;

/// Parsed semantic-pass configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// `[layers]`: crate → crates it may depend on *directly*. The
    /// transitive closure of this relation is what the layering rule
    /// permits; anything else is a violation.
    pub layers: BTreeMap<String, Vec<String>>,
    /// `[panics] public_crates`: crates whose `pub` functions must not
    /// reach a panic site.
    pub panic_public_crates: Vec<String>,
    /// `[panics] index_crates`: crates whose slice/`Vec` indexing sites
    /// count as panic sources — code (like the serving layer) where an
    /// out-of-bounds panic would take down a long-lived process.
    /// Indexing elsewhere is pervasive in the adjacency code and is not
    /// flagged; an audit build lists more crates here.
    pub panic_index_crates: Vec<String>,
    /// `[determinism] order_crates`: crates where `HashMap`/`HashSet`
    /// iteration order is treated as observable output (samplers and
    /// solvers) and therefore flagged.
    pub order_crates: Vec<String>,
    /// `[determinism] rng_crates`: crates whose functions must not
    /// construct an RNG unless they take a seed or `Rng` parameter.
    /// The bench crate is deliberately out of scope — its hard-coded
    /// seeds *define* the experiments.
    pub rng_crates: Vec<String>,
}

/// A `check.toml` read or parse failure, with a 1-based line number
/// (0 when the failure is not tied to one line).
#[derive(Clone, Debug)]
pub struct ConfigError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            0 => write!(f, "check.toml: {}", self.message),
            line => write!(f, "check.toml:{line}: {}", self.message),
        }
    }
}

impl Config {
    /// Load `check.toml` from `root`: the permissive default when the
    /// file does not exist, an error when it exists but cannot be read.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        match std::fs::read_to_string(root.join("check.toml")) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(ConfigError {
                line: 0,
                message: format!("cannot read: {e}"),
            }),
        }
    }

    /// Parse configuration text (the TOML subset described in the module
    /// docs).
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = unquote(line[..eq].trim());
            cfg.apply(&section, &key, line[eq + 1..].trim(), line_no)?;
        }
        cfg.validate_layers()?;
        Ok(cfg)
    }

    /// Route one `key = value` pair into the matching field. Every key
    /// takes a string array; unknown keys are errors, so a typo or a
    /// retired knob cannot be ignored silently.
    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: &str,
        line: usize,
    ) -> Result<(), ConfigError> {
        let slot = match (section, key) {
            ("layers", krate) => self.layers.entry(krate.to_string()).or_default(),
            ("panics", "public_crates") => &mut self.panic_public_crates,
            ("panics", "index_crates") => &mut self.panic_index_crates,
            ("determinism", "order_crates") => &mut self.order_crates,
            ("determinism", "rng_crates") => &mut self.rng_crates,
            _ => {
                return Err(ConfigError {
                    line,
                    message: format!("unknown configuration key [{section}] {key}"),
                })
            }
        };
        *slot = parse_str_array(value).ok_or_else(|| ConfigError {
            line,
            message: format!(
                "[{section}] {key} must be a one-line array of strings, got `{value}`"
            ),
        })?;
        Ok(())
    }

    /// The declared layering must itself be a DAG, and every crate named
    /// as a dependency must be declared as a layer (so a typo cannot
    /// silently open a hole).
    fn validate_layers(&self) -> Result<(), ConfigError> {
        for (krate, deps) in &self.layers {
            for d in deps {
                if !self.layers.contains_key(d) {
                    return Err(ConfigError {
                        line: 0,
                        message: format!("[layers] {krate} depends on undeclared crate `{d}`"),
                    });
                }
            }
        }
        // Kahn's algorithm: if a topological order does not consume every
        // crate, the remainder is cyclic.
        let mut indegree: BTreeMap<&str, usize> =
            self.layers.keys().map(|k| (k.as_str(), 0)).collect();
        for deps in self.layers.values() {
            for d in deps {
                if let Some(n) = indegree.get_mut(d.as_str()) {
                    *n += 1;
                }
            }
        }
        let mut queue: Vec<&str> = indegree
            .iter()
            .filter(|(_, n)| **n == 0)
            .map(|(k, _)| *k)
            .collect();
        let mut seen = 0usize;
        while let Some(k) = queue.pop() {
            seen += 1;
            for d in &self.layers[k] {
                if let Some(n) = indegree.get_mut(d.as_str()) {
                    *n -= 1;
                    if *n == 0 {
                        queue.push(d);
                    }
                }
            }
        }
        if seen != self.layers.len() {
            return Err(ConfigError {
                line: 0,
                message: "[layers] declared dependency graph contains a cycle".into(),
            });
        }
        Ok(())
    }

    /// The set of crates `krate` may reference: the transitive closure of
    /// its declared direct dependencies. `None` when `krate` is not
    /// declared in `[layers]` at all (the layering rule reports that
    /// separately).
    pub fn allowed_deps(&self, krate: &str) -> Option<Vec<String>> {
        self.layers.get(krate)?;
        let mut out: Vec<String> = Vec::new();
        let mut stack: Vec<&str> = vec![krate];
        while let Some(k) = stack.pop() {
            for d in self.layers.get(k).map(Vec::as_slice).unwrap_or(&[]) {
                if !out.iter().any(|o| o == d) {
                    out.push(d.clone());
                    stack.push(d);
                }
            }
        }
        out.sort();
        Some(out)
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Strip surrounding double quotes if present (TOML quoted keys).
fn unquote(s: &str) -> String {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
        .to_string()
}

/// Parse a flat one-line string array: `["a", "b"]` (a trailing comma
/// is fine).
fn parse_str_array(s: &str) -> Option<Vec<String>> {
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    body.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| Some(part.strip_prefix('"')?.strip_suffix('"')?.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# layering
[layers]
"sor-graph" = []
"sor-flow" = ["sor-graph"]
"sor-core" = ["sor-flow", "sor-graph"] # closure includes graph anyway

[panics]
public_crates = ["sor-flow", "sor-core"]

[determinism]
order_crates = ["sor-core"]
"#;

    #[test]
    fn parses_sample() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        assert_eq!(cfg.layers["sor-flow"], vec!["sor-graph"]);
        assert_eq!(cfg.panic_public_crates, vec!["sor-flow", "sor-core"]);
        assert_eq!(cfg.order_crates, vec!["sor-core"]);
    }

    #[test]
    fn panic_index_crates_parse() {
        let cfg = Config::parse("[panics]\nindex_crates = [\"sor-serve\"]\n").expect("parse");
        assert_eq!(cfg.panic_index_crates, vec!["sor-serve"]);
    }

    #[test]
    fn closure_is_transitive() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        let deps = cfg.allowed_deps("sor-core").expect("declared");
        assert_eq!(deps, vec!["sor-flow", "sor-graph"]);
        assert_eq!(cfg.allowed_deps("sor-graph").expect("declared").len(), 0);
        assert!(cfg.allowed_deps("sor-unknown").is_none());
    }

    #[test]
    fn cycle_is_rejected() {
        let bad = "[layers]\n\"a\" = [\"b\"]\n\"b\" = [\"a\"]\n";
        assert!(Config::parse(bad).is_err());
    }

    #[test]
    fn undeclared_dep_is_rejected() {
        let bad = "[layers]\n\"a\" = [\"nope\"]\n";
        assert!(Config::parse(bad).is_err());
    }

    #[test]
    fn unknown_key_is_rejected() {
        assert!(Config::parse("[panics]\nfrobnicate = 3\n").is_err());
    }

    #[test]
    fn non_array_value_is_rejected() {
        let err = Config::parse("[panics]\npublic_crates = \"sor-core\"\n").expect_err("scalar");
        assert_eq!(err.to_string(), "check.toml:2: [panics] public_crates must be a one-line array of strings, got `\"sor-core\"`");
    }

    #[test]
    fn missing_file_is_default() {
        let cfg = Config::load(Path::new("/no/such/dir")).expect("default");
        assert!(cfg.layers.is_empty());
    }
}
