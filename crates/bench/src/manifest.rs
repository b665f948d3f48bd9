//! Run manifests: the provenance record embedded in every bench
//! artifact.
//!
//! A perf number with no record of what produced it is not evidence.
//! Every harness run captures the git commit (plus a dirty flag — a
//! number from an uncommitted tree says so), the seed set handed to the
//! child processes, a hash of the scenario configuration, a host
//! fingerprint (CPU model, core count, arch/OS, rustc version), and the digest of
//! every child invocation's histograms. `repro report --check` refuses
//! artifacts without one.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Hardware/toolchain identity of the machine that produced a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// The `model name` of `/proc/cpuinfo`, or `"unknown"` where there is
    /// none; `None` in artifacts written before it was recorded.
    pub cpu_model: Option<String>,
    /// Available parallelism (logical cores visible to the process).
    pub cores: usize,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// `rustc --version` of the toolchain on PATH at run time, or
    /// `"unknown"` when rustc is not invocable.
    pub rustc: String,
}

impl HostFingerprint {
    /// Captures the current host.
    pub fn capture() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .filter_map(|line| line.split_once(':'))
                    .find(|(key, _)| key.trim() == "model name")
                    .map(|(_, model)| model.trim().to_string())
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpu_model: Some(cpu_model),
            cores,
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            rustc,
        }
    }

    /// Whether `other` is another machine: the core count, arch or OS
    /// differ, or both record CPU models and they differ. (`rustc` is the
    /// toolchain, not the host.)
    pub fn differs_from(&self, other: &Self) -> bool {
        let models = (&self.cpu_model, &other.cpu_model);
        matches!(models, (Some(a), Some(b)) if a != b)
            || (self.cores, &self.arch, &self.os) != (other.cores, &other.arch, &other.os)
    }

    /// The `host` object of a manifest (order-stable).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(model) = &self.cpu_model {
            fields.push(("cpu_model".into(), Json::Str(model.clone())));
        }
        fields.extend([
            ("cores".into(), Json::Num(self.cores.to_string())),
            ("arch".into(), Json::Str(self.arch.clone())),
            ("os".into(), Json::Str(self.os.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
        ]);
        Json::Obj(fields)
    }
}

impl std::fmt::Display for HostFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let model = self.cpu_model.as_deref().unwrap_or("unrecorded CPU");
        write!(
            f,
            "{model} ({} cores, {}/{})",
            self.cores, self.arch, self.os
        )
    }
}

/// One child invocation's identity and histogram digest, recorded so a
/// later reader can tie every merged bucket back to the process that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildRecord {
    /// Scenario id plus invocation seed, e.g.
    /// `"hotpath/revocation/fanout=64#seed=2"`.
    pub id: String,
    /// Hex SHA-256 over the child's canonical histogram bytes.
    pub digest: String,
}

/// Provenance for one artifact-producing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The producing tool: `"harness"` for `repro harness` runs, the
    /// only producer the artifact gate accepts for committed bench
    /// artifacts.
    pub generator: String,
    /// `git rev-parse HEAD`, or `"unknown"` outside a repo.
    pub git_hash: String,
    /// Whether the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// Seeds handed to the child invocations, in order.
    pub seeds: Vec<u64>,
    /// Hex SHA-256 of the canonical scenario-configuration string.
    pub config_hash: String,
    /// Invocations merged per scenario.
    pub invocations: usize,
    /// Host identity.
    pub host: HostFingerprint,
    /// Digest of every child invocation that fed the artifact.
    pub children: Vec<ChildRecord>,
}

fn git_in(root: &Path, args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
}

impl Manifest {
    /// Captures a manifest for a run rooted at `root` (the workspace
    /// directory used for git queries). `config` is the canonical
    /// scenario-configuration string; only its hash is stored.
    pub fn capture(
        root: &Path,
        generator: &str,
        seeds: Vec<u64>,
        config: &str,
        invocations: usize,
        children: Vec<ChildRecord>,
    ) -> Self {
        let git_hash = git_in(root, &["rev-parse", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let git_dirty = git_in(root, &["status", "--porcelain"])
            .map(|s| !s.trim().is_empty())
            .unwrap_or(false);
        Self {
            generator: generator.to_string(),
            git_hash,
            git_dirty,
            seeds,
            config_hash: tyche_crypto::hash(config.as_bytes()).to_hex(),
            invocations,
            host: HostFingerprint::capture(),
            children,
        }
    }

    /// Serialises to a JSON value (order-stable).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("generator".into(), Json::Str(self.generator.clone())),
            ("git_hash".into(), Json::Str(self.git_hash.clone())),
            ("git_dirty".into(), Json::Bool(self.git_dirty)),
            (
                "seeds".into(),
                Json::Arr(
                    self.seeds
                        .iter()
                        .map(|s| Json::Num(s.to_string()))
                        .collect(),
                ),
            ),
            ("config_hash".into(), Json::Str(self.config_hash.clone())),
            (
                "invocations".into(),
                Json::Num(self.invocations.to_string()),
            ),
            ("host".into(), self.host.to_json()),
            (
                "children".into(),
                Json::Arr(
                    self.children
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("id".into(), Json::Str(c.id.clone())),
                                ("digest".into(), Json::Str(c.digest.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`Self::to_json`] encoding back, for `report --check`.
    pub fn parse(value: &Json) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {key:?}"))
        };
        let host = value.get("host").ok_or("manifest missing host")?;
        let seeds = value
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or("manifest missing seeds")?
            .iter()
            .map(|s| s.as_u64().ok_or_else(|| "bad seed".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let children = value
            .get("children")
            .and_then(Json::as_arr)
            .ok_or("manifest missing children")?
            .iter()
            .map(|c| {
                Ok(ChildRecord {
                    id: c
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "child record missing id".to_string())?
                        .to_string(),
                    digest: c
                        .get("digest")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "child record missing digest".to_string())?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            generator: str_field("generator")?,
            git_hash: str_field("git_hash")?,
            git_dirty: value
                .get("git_dirty")
                .and_then(Json::as_bool)
                .ok_or("manifest missing git_dirty")?,
            seeds,
            config_hash: str_field("config_hash")?,
            invocations: value
                .get("invocations")
                .and_then(Json::as_u64)
                .ok_or("manifest missing invocations")? as usize,
            host: HostFingerprint {
                cpu_model: host
                    .get("cpu_model")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                cores: host
                    .get("cores")
                    .and_then(Json::as_u64)
                    .ok_or("host missing cores")? as usize,
                arch: host
                    .get("arch")
                    .and_then(Json::as_str)
                    .ok_or("host missing arch")?
                    .to_string(),
                os: host
                    .get("os")
                    .and_then(Json::as_str)
                    .ok_or("host missing os")?
                    .to_string(),
                rustc: host
                    .get("rustc")
                    .and_then(Json::as_str)
                    .ok_or("host missing rustc")?
                    .to_string(),
            },
            children,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_host_fingerprint() {
        let m = Manifest::capture(
            Path::new("."),
            "harness",
            vec![1, 2, 3],
            "suite=hotpath fanouts=16,64",
            3,
            vec![ChildRecord {
                id: "a#seed=1".into(),
                digest: "00".into(),
            }],
        );
        assert!(m.host.cores >= 1);
        assert!(!m.host.arch.is_empty());
        assert_eq!(m.config_hash.len(), 64);
        assert_eq!(m.generator, "harness");
    }

    #[test]
    fn json_roundtrip() {
        let m = Manifest {
            generator: "harness".into(),
            git_hash: "abc123".into(),
            git_dirty: true,
            seeds: vec![1, 2],
            config_hash: "ff".repeat(32),
            invocations: 2,
            host: HostFingerprint {
                cpu_model: Some("Example CPU @ 2.00GHz".into()),
                cores: 8,
                arch: "x86_64".into(),
                os: "linux".into(),
                rustc: "rustc 1.0".into(),
            },
            children: vec![
                ChildRecord {
                    id: "x#seed=1".into(),
                    digest: "aa".repeat(32),
                },
                ChildRecord {
                    id: "x#seed=2".into(),
                    digest: "bb".repeat(32),
                },
            ],
        };
        let encoded = m.to_json().to_compact();
        let back = Manifest::parse(&crate::json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn manifests_without_cpu_model_still_parse() {
        let m = Manifest::capture(Path::new("."), "harness", vec![1], "a", 1, vec![]);
        assert!(m.host.cpu_model.as_deref().is_some_and(|s| !s.is_empty()));
        let mut old = m.clone();
        old.host.cpu_model = None;
        let back = Manifest::parse(&crate::json::parse(&old.to_json().to_compact()).unwrap());
        assert_eq!(back.unwrap(), old);
        // An unrecorded model is not a host change; a different one is.
        assert!(!old.host.differs_from(&m.host));
        let mut other = m.host.clone();
        other.cpu_model = Some("Another CPU".into());
        assert!(other.differs_from(&m.host));
    }

    #[test]
    fn config_hash_differs_by_config() {
        let a = Manifest::capture(Path::new("."), "harness", vec![], "a", 1, vec![]);
        let b = Manifest::capture(Path::new("."), "harness", vec![], "b", 1, vec![]);
        assert_ne!(a.config_hash, b.config_hash);
    }
}
