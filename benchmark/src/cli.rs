//! The one argument list both programs take (`run.sh` passes it to the
//! wire driver and, for a per-layer run, on to the traced replay).

use std::path::PathBuf;

use crate::workload::Workload;

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`
    pub workload: Workload,
    /// `--seed`: the whole op sequence is a function of it.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: the per-layer run.
    pub trace: bool,
    /// `--server`: the `xsd-serve` binary.
    pub server: PathBuf,
    /// `--out`: where results, traces and scratch directories go.
    pub out: PathBuf,
    /// `--scale`: divides sizes and op counts (the self-test's 20).
    pub scale: usize,
    /// `--flip N`: corrupt the expected answer of op N of round 1 (the
    /// self-test's proof that the checker fires).
    pub flip: Option<usize>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Result<Args, String> {
        let (mut workload, mut server, mut out) = (None, None, None);
        let (mut seed, mut seconds, mut trace, mut scale, mut flip) = (1, 15.0, false, 1, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value.parse::<u64>().map_err(|_| format!("{flag} needs a number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()? as f64,
                "--trace" => trace = number()? != 0,
                "--scale" => scale = number()?.max(1) as usize,
                "--flip" => flip = Some(number()? as usize),
                "--server" => server = Some(PathBuf::from(&value)),
                "--out" => out = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            server: server.ok_or("--server is required")?,
            out: out.ok_or("--out is required")?,
            scale,
            flip,
        })
    }
}
