//! Seed-keyed, cached benchmark inputs.
//!
//! `gen` writes every input a workload needs under
//! `target/benchmark/inputs/<seed>/<workload>/`: `.cadpack` sequences,
//! per-session change lists, and (for the journaled workload) a
//! pre-populated journal. A run reads only those files, so the program
//! under test sees the same bytes for the same seed.
//!
//! Inputs are generated in a child process: the counting allocator's
//! peak never decreases, and generation must not reach the measuring
//! process's `peak_heap_mb`.

use crate::workload::Workload;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Marker written last; a directory without it is incomplete.
const DONE: &str = ".done";

/// Seed directories kept; older ones are removed when a new one is made.
const KEEP_SEEDS: usize = 6;

/// Where every seed's inputs live (relative to the repository root).
fn inputs_root() -> PathBuf {
    Path::new("target").join("benchmark").join("inputs")
}

/// The input directory of one workload for one seed.
fn dir(w: Workload, seed: u64) -> PathBuf {
    inputs_root().join(seed.to_string()).join(w.name())
}

/// Make sure the inputs of `(w, seed)` exist, generating them in a
/// child process (`benchmark gen`) when they do not.
pub fn ensure(w: Workload, seed: u64) -> Result<PathBuf, String> {
    let d = dir(w, seed);
    if d.join(DONE).exists() {
        return Ok(d);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["gen", "--workload", w.name(), "--seed", &seed.to_string()])
        .status()
        .map_err(|e| format!("cannot start input generation: {e}"))?;
    if !status.success() || !d.join(DONE).exists() {
        return Err(format!(
            "input generation for {} failed ({status})",
            w.name()
        ));
    }
    Ok(d)
}

/// Generate the inputs of `(w, seed)` with `write` into a scratch
/// directory, then move it into place, so a half-written directory is
/// never mistaken for a finished one.
pub fn generate(
    w: Workload,
    seed: u64,
    write: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let dest = dir(w, seed);
    if dest.join(DONE).exists() {
        return Ok(());
    }
    let tmp = dest.with_extension(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    write(&tmp)?;
    std::fs::write(tmp.join(DONE), b"").map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dest);
    std::fs::rename(&tmp, &dest).map_err(|e| format!("{}: {e}", dest.display()))?;
    prune(seed);
    Ok(())
}

/// Remove all but the [`KEEP_SEEDS`] most recently generated seed
/// directories (never `keep`), bounding the disk the cache uses.
fn prune(keep: u64) {
    let Ok(entries) = std::fs::read_dir(inputs_root()) else {
        return;
    };
    let mut seeds: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name() != keep.to_string().as_str())
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    seeds.sort();
    let excess = (seeds.len() + 1).saturating_sub(KEEP_SEEDS);
    for (_, path) in seeds.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(path);
    }
}

/// One push of a serving session: the edge changes to apply to the
/// session's current graph (`(u, v, w)` with `u < v`; `w == 0` removes
/// the edge), and the edge it spikes, if it plants an anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Push {
    /// Edge changes, distinct `(u, v)` pairs.
    pub changes: Vec<(usize, usize, f64)>,
    /// The planted spike `(u, v)`, also present in `changes`.
    pub spike: Option<(usize, usize)>,
}

const CHANGES_MAGIC: &[u8; 8] = b"CADCHG01";

/// Write a change list: magic, push count, then per push a spike flag
/// and the changes (`u32 u`, `u32 v`, `f64` weight bits, little-endian).
/// The spike, when flagged, is the push's last change.
pub fn write_changes(path: &Path, pushes: &[Push]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(CHANGES_MAGIC)?;
    out.write_all(&(pushes.len() as u32).to_le_bytes())?;
    for p in pushes {
        out.write_all(&[u8::from(p.spike.is_some())])?;
        out.write_all(&(p.changes.len() as u32).to_le_bytes())?;
        let mut changes = p.changes.clone();
        if let Some(s) = p.spike {
            let i = changes
                .iter()
                .position(|&(u, v, _)| (u, v) == s)
                .expect("a spike is one of its push's changes");
            let spike = changes.remove(i);
            changes.push(spike);
        }
        for (u, v, w) in changes {
            out.write_all(&(u as u32).to_le_bytes())?;
            out.write_all(&(v as u32).to_le_bytes())?;
            out.write_all(&w.to_bits().to_le_bytes())?;
        }
    }
    out.flush()
}

/// Streams a change list written by [`write_changes`] one push at a
/// time, so a run never holds a whole list in memory.
pub struct ChangeReader {
    inp: BufReader<File>,
    remaining: u32,
}

impl ChangeReader {
    /// Open a change list.
    pub fn open(path: &Path) -> std::io::Result<ChangeReader> {
        let mut inp = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        inp.read_exact(&mut magic)?;
        if &magic != CHANGES_MAGIC {
            return Err(std::io::Error::other(format!(
                "{} is not a change list",
                path.display()
            )));
        }
        let remaining = read_u32(&mut inp)?;
        Ok(ChangeReader { inp, remaining })
    }

    /// The next push, or `None` when the list is exhausted.
    pub fn next_push(&mut self) -> std::io::Result<Option<Push>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut flag = [0u8; 1];
        self.inp.read_exact(&mut flag)?;
        let n = read_u32(&mut self.inp)? as usize;
        let mut changes = Vec::with_capacity(n);
        for _ in 0..n {
            let u = read_u32(&mut self.inp)? as usize;
            let v = read_u32(&mut self.inp)? as usize;
            let mut w = [0u8; 8];
            self.inp.read_exact(&mut w)?;
            changes.push((u, v, f64::from_bits(u64::from_le_bytes(w))));
        }
        let spike = match (flag[0], changes.last()) {
            (1, Some(&(u, v, _))) => Some((u, v)),
            _ => None,
        };
        Ok(Some(Push { changes, spike }))
    }
}

fn read_u32(inp: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    inp.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Write `(a, b, c)` integer triples or pairs as text lines.
pub fn write_lines(path: &Path, rows: &[Vec<usize>]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for row in rows {
        let cells: Vec<String> = row.iter().map(usize::to_string).collect();
        writeln!(out, "{}", cells.join(" "))?;
    }
    out.flush()
}

/// Read the integer rows [`write_lines`] wrote.
pub fn read_lines(path: &Path) -> Result<Vec<Vec<usize>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|c| c.parse().map_err(|e| format!("{}: {e}", path.display())))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DenseParams, ServeParams, SparseParams, CHURN, SMALL_DELTA};

    /// Every file under `dir`, as (relative path, bytes), sorted.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).unwrap().flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    let rel = p.strip_prefix(dir).unwrap().to_path_buf();
                    out.push((rel, std::fs::read(&p).unwrap()));
                }
            }
        }
        out.sort();
        out
    }

    fn tiny_serve(base: &ServeParams) -> ServeParams {
        ServeParams {
            sessions: 2,
            nodes: 24,
            pushes: 12,
            prefix: base.prefix.min(4),
            ..base.clone()
        }
    }

    /// Writes all four workloads' inputs for `seed` (at toy sizes) into
    /// a fresh directory and returns its snapshot.
    fn gen_all(tag: &str, seed: u64) -> Vec<(PathBuf, Vec<u8>)> {
        let root = std::env::temp_dir().join(format!(
            "cad-benchmark-gen-{}-{tag}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let sparse = SparseParams {
            n: 60,
            instances: 3,
            planted_per_step: 2,
            l: 4,
            ..crate::workload::SPARSE
        };
        let dense = DenseParams {
            n: 40,
            realizations: 2,
            job_secs: 0.0,
        };
        let dir = |name: &str| {
            let d = root.join(name);
            std::fs::create_dir_all(&d).unwrap();
            d
        };
        crate::batch::gen_sparse(&sparse, seed, &dir("sparse")).unwrap();
        crate::batch::gen_dense(&dense, seed, &dir("dense")).unwrap();
        crate::serve::gen_serve(&tiny_serve(&SMALL_DELTA), seed, &dir("small")).unwrap();
        crate::serve::gen_serve(&tiny_serve(&CHURN), seed, &dir("churn")).unwrap();
        let snap = snapshot(&root);
        std::fs::remove_dir_all(&root).unwrap();
        snap
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = gen_all("a", 7);
        let b = gen_all("b", 7);
        let c = gen_all("c", 8);
        assert!(a.len() >= 8, "{} files", a.len());
        assert_eq!(a, b, "the same seed must give byte-identical inputs");
        let names = |s: &[(PathBuf, Vec<u8>)]| s.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&c));
        for (fa, fc) in a.iter().zip(&c) {
            assert_ne!(fa.1, fc.1, "{} must depend on the seed", fa.0.display());
        }
    }

    #[test]
    fn change_lists_round_trip() {
        let path = std::env::temp_dir().join(format!("cad-benchmark-chg-{}", std::process::id()));
        let pushes = vec![
            Push {
                changes: vec![],
                spike: None,
            },
            Push {
                changes: vec![(3, 9, 50.0), (0, 1, 0.25), (2, 5, 0.0)],
                spike: Some((3, 9)),
            },
        ];
        write_changes(&path, &pushes).unwrap();
        let mut r = ChangeReader::open(&path).unwrap();
        assert_eq!(r.next_push().unwrap().unwrap(), pushes[0]);
        let second = r.next_push().unwrap().unwrap();
        assert_eq!(second.spike, Some((3, 9)));
        assert_eq!(second.changes.last(), Some(&(3, 9, 50.0)));
        assert_eq!(second.changes.len(), 3);
        assert!(r.next_push().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
