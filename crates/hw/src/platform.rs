//! The evaluated compute platforms (§5.4) behind one pricing interface.

use supernova_linalg::ops::Op;

use crate::{CompModel, CpuModel, GpuModel, MemModel, SocConfig};

/// Which §5.4 platform a [`Platform`] models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Out-of-order RISC-V BOOM core (baseline 1).
    Boom,
    /// ARM Cortex-A72 on Raspberry Pi 4 (baseline 2).
    MobileCpu,
    /// Cortex-A72 + NEON SIMD (baseline 3).
    MobileDsp,
    /// Intel Xeon E5-2643 (baseline 4).
    ServerCpu,
    /// NVIDIA Maxwell on Jetson Nano (baseline 5).
    EmbeddedGpu,
    /// Spatula: GEMM accelerator without MEM/SIU (baseline 6).
    Spatula,
    /// The SuperNoVA SoC (COMP + MEM + Rocket tiles).
    SuperNova,
}

/// Prices [`Op`] records in seconds.
pub trait Engine {
    /// Seconds for `op`, assuming the working set `fits_llc` (or the
    /// platform's equivalent cache level).
    fn op_time_ctx(&self, op: &Op, fits_llc: bool) -> f64;

    /// Seconds for `op` with a cache-resident working set.
    fn op_time(&self, op: &Op) -> f64 {
        self.op_time_ctx(op, true)
    }
}

/// One modeled compute platform: a numeric engine, a host CPU for the
/// non-numeric work (relinearization, symbolic analysis), and the memory
/// capacity that decides when a frontal working set spills.
///
/// # Example
///
/// ```
/// use supernova_hw::Platform;
///
/// let p = Platform::supernova(2);
/// assert_eq!(p.accel_sets(), 2);
/// assert!(p.is_accelerated());
/// assert_eq!(Platform::boom().accel_sets(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Platform {
    kind: PlatformKind,
    host: CpuModel,
    comp: Option<CompModel>,
    mem: Option<MemModel>,
    gpu: Option<GpuModel>,
    soc: SocConfig,
    cache_bytes: usize,
    relin_threads: usize,
}

impl Platform {
    /// Baseline 1: BOOM OoO core in the SuperNoVA memory system.
    pub fn boom() -> Self {
        Platform {
            kind: PlatformKind::Boom,
            host: CpuModel::boom(),
            comp: None,
            mem: None,
            gpu: None,
            soc: SocConfig::paper(),
            cache_bytes: 4 << 20,
            relin_threads: 1,
        }
    }

    /// Baseline 2: Raspberry Pi 4 Cortex-A72.
    pub fn mobile_cpu() -> Self {
        Platform {
            kind: PlatformKind::MobileCpu,
            host: CpuModel::cortex_a72(),
            comp: None,
            mem: None,
            gpu: None,
            soc: SocConfig::paper(),
            cache_bytes: 1 << 20,
            relin_threads: 1,
        }
    }

    /// Baseline 3: Cortex-A72 with NEON engaged for numeric kernels.
    pub fn mobile_dsp() -> Self {
        Platform {
            kind: PlatformKind::MobileDsp,
            host: CpuModel::neon_dsp(),
            ..Self::mobile_cpu()
        }
    }

    /// Baseline 4: server-class Xeon.
    pub fn server_cpu() -> Self {
        Platform {
            kind: PlatformKind::ServerCpu,
            host: CpuModel::xeon(),
            comp: None,
            mem: None,
            gpu: None,
            soc: SocConfig::paper(),
            cache_bytes: 20 << 20,
            relin_threads: 1,
        }
    }

    /// Baseline 5: Jetson Nano embedded GPU (host A72 drives the solver).
    pub fn embedded_gpu() -> Self {
        Platform {
            kind: PlatformKind::EmbeddedGpu,
            host: CpuModel::cortex_a72(),
            comp: None,
            mem: None,
            gpu: Some(GpuModel::jetson_nano()),
            soc: SocConfig::paper(),
            cache_bytes: 1 << 20,
            relin_threads: 1,
        }
    }

    /// Baseline 6: Spatula — the same GEMM array without MEM or SIU, so
    /// memory management and block scatter fall back to the Rocket CPU.
    pub fn spatula(sets: usize) -> Self {
        Platform {
            kind: PlatformKind::Spatula,
            host: CpuModel::rocket(),
            comp: Some(CompModel::spatula()),
            mem: None,
            gpu: None,
            soc: SocConfig::with_accel_sets(sets),
            cache_bytes: 4 << 20,
            relin_threads: sets,
        }
    }

    /// The SuperNoVA SoC with `sets` accelerator sets (Table 3).
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`.
    pub fn supernova(sets: usize) -> Self {
        Self::supernova_with(SocConfig::with_accel_sets(sets))
    }

    /// SuperNoVA without the Sparse Index Unroller: block scatter falls
    /// back to the controller CPU while MEM keeps the DMA offload. Used by
    /// the `ablate-siu` experiment to decompose the Spatula gap into its
    /// SIU and MEM contributions.
    pub fn supernova_without_siu(sets: usize) -> Self {
        let mut p = Self::supernova(sets);
        if let Some(comp) = p.comp.as_mut() {
            comp.has_siu = false;
        }
        p
    }

    /// The SuperNoVA SoC with an explicit configuration.
    pub fn supernova_with(soc: SocConfig) -> Self {
        let comp = CompModel {
            systolic_dim: soc.systolic_dim,
            freq_hz: soc.freq_hz,
            ..CompModel::paper()
        };
        let mem = MemModel {
            freq_hz: soc.freq_hz,
            virtual_channels: soc.virtual_channels,
            ..MemModel::paper()
        };
        let cache_bytes = soc.llc_bytes;
        let relin_threads = soc.cpu_tiles;
        Platform {
            kind: PlatformKind::SuperNova,
            host: CpuModel::rocket(),
            comp: Some(comp),
            mem: Some(mem),
            gpu: None,
            soc,
            cache_bytes,
            relin_threads,
        }
    }

    /// Which platform this is.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self.kind {
            PlatformKind::Boom => "BOOM",
            PlatformKind::MobileCpu => "Mobile CPU",
            PlatformKind::MobileDsp => "Mobile DSP",
            PlatformKind::ServerCpu => "Server CPU",
            PlatformKind::EmbeddedGpu => "Embedded GPU",
            PlatformKind::Spatula => "Spatula",
            PlatformKind::SuperNova => "SuperNoVA",
        }
    }

    /// The SoC configuration (meaningful for SuperNoVA/Spatula; baselines
    /// carry the default for LLC bookkeeping).
    pub fn soc(&self) -> &SocConfig {
        &self.soc
    }

    /// Number of accelerator sets; zero for non-accelerated platforms.
    pub fn accel_sets(&self) -> usize {
        if self.comp.is_some() {
            self.soc.accel_sets()
        } else {
            0
        }
    }

    /// `true` when the platform has COMP-style accelerators the runtime can
    /// virtualize (SuperNoVA and Spatula).
    pub fn is_accelerated(&self) -> bool {
        self.comp.is_some()
    }

    /// `true` when the platform has the SIU (block scatter on COMP rather
    /// than the CPU).
    pub fn has_siu(&self) -> bool {
        self.comp.as_ref().map(|c| c.has_siu).unwrap_or(false)
    }

    /// `true` when the platform has the MEM DMA accelerator.
    pub fn has_mem_accel(&self) -> bool {
        self.mem.is_some()
    }

    /// The COMP model, when present.
    pub fn comp(&self) -> Option<&CompModel> {
        self.comp.as_ref()
    }

    /// The MEM model, when present.
    pub fn mem(&self) -> Option<&MemModel> {
        self.mem.as_ref()
    }

    /// The host CPU model (non-numeric work, and fallback numeric work).
    pub fn host(&self) -> &CpuModel {
        &self.host
    }

    /// Cache capacity in bytes that decides `fits_llc` for a working set.
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Per-step fixed overhead (host↔device transfers on the GPU; zero
    /// elsewhere).
    pub fn step_overhead(&self) -> f64 {
        self.gpu.as_ref().map(|g| g.step_setup).unwrap_or(0.0)
    }

    /// Seconds to relinearize `factors` factors totalling `jacobian_elems`
    /// Jacobian elements on this platform's host CPU(s).
    pub fn relin_time(&self, jacobian_elems: usize, factors: usize) -> f64 {
        self.host
            .relin_time(jacobian_elems, factors, self.relin_threads)
    }

    /// Seconds of symbolic analysis over `pattern_elems` pattern entries.
    pub fn symbolic_time(&self, pattern_elems: usize) -> f64 {
        self.host.symbolic_time(pattern_elems)
    }

    /// Returns a serial-pricing engine view of this platform.
    pub fn numeric_engine(&self) -> &dyn Engine {
        self
    }
}

impl Engine for Platform {
    fn op_time_ctx(&self, op: &Op, fits_llc: bool) -> f64 {
        match self.kind {
            PlatformKind::Boom
            | PlatformKind::MobileCpu
            | PlatformKind::MobileDsp
            | PlatformKind::ServerCpu => self.host.op_time(op, fits_llc),
            // lint: allow(unwrap) — EmbeddedGpu is constructed with a gpu model
            PlatformKind::EmbeddedGpu => self.gpu.as_ref().expect("gpu model").op_time(op),
            PlatformKind::Spatula | PlatformKind::SuperNova => {
                if let Some(t) = self.comp.as_ref().and_then(|c| c.op_time(op, fits_llc)) {
                    t
                } else if let Some(t) = self.mem.as_ref().and_then(|m| m.op_time(op, fits_llc)) {
                    t
                } else {
                    // No SIU / no MEM: the controller CPU does it.
                    self.host.op_time(op, fits_llc)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_platforms() -> Vec<Platform> {
        vec![
            Platform::boom(),
            Platform::mobile_cpu(),
            Platform::mobile_dsp(),
            Platform::server_cpu(),
            Platform::embedded_gpu(),
            Platform::spatula(2),
            Platform::supernova(2),
        ]
    }

    #[test]
    fn every_platform_prices_every_op() {
        let ops = [
            Op::Gemm {
                m: 12,
                n: 12,
                k: 12,
            },
            Op::Syrk { n: 24, k: 12 },
            Op::Trsm { m: 12, n: 24 },
            Op::Chol { n: 12 },
            Op::Gemv { m: 12, n: 12 },
            Op::ScatterAdd {
                blocks: 6,
                elems: 216,
            },
            Op::Memcpy { bytes: 4096 },
            Op::Memset { bytes: 4096 },
        ];
        for p in all_platforms() {
            for op in &ops {
                let t = p.numeric_engine().op_time(op);
                assert!(t > 0.0 && t.is_finite(), "{} failed on {op:?}", p.name());
            }
        }
    }

    #[test]
    fn supernova_beats_boom_on_blas3() {
        let sn = Platform::supernova(2);
        let boom = Platform::boom();
        let op = Op::Syrk { n: 96, k: 48 };
        assert!(sn.numeric_engine().op_time(&op) < boom.numeric_engine().op_time(&op));
    }

    #[test]
    fn spatula_pays_cpu_scatter_and_memory() {
        let sn = Platform::supernova(2);
        let sp = Platform::spatula(2);
        let scatter = Op::ScatterAdd {
            blocks: 64,
            elems: 2304,
        };
        let memset = Op::Memset { bytes: 1 << 16 };
        assert!(sp.numeric_engine().op_time(&scatter) > sn.numeric_engine().op_time(&scatter));
        assert!(sp.numeric_engine().op_time(&memset) > sn.numeric_engine().op_time(&memset));
        // But the GEMM array itself matches.
        let gemm = Op::Gemm {
            m: 64,
            n: 64,
            k: 64,
        };
        let a = sp.numeric_engine().op_time(&gemm);
        let b = sn.numeric_engine().op_time(&gemm);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn gpu_has_step_overhead_and_launch_penalty() {
        let gpu = Platform::embedded_gpu();
        assert!(gpu.step_overhead() > 0.0);
        assert_eq!(Platform::supernova(1).step_overhead(), 0.0);
        // Small ops: GPU slower than even the mobile CPU.
        let small = Op::Gemm { m: 3, n: 3, k: 3 };
        assert!(
            gpu.numeric_engine().op_time(&small)
                > Platform::mobile_cpu().numeric_engine().op_time(&small)
        );
    }

    #[test]
    fn accel_sets_and_flags() {
        assert_eq!(Platform::supernova(4).accel_sets(), 4);
        assert!(Platform::supernova(1).has_siu());
        assert!(Platform::supernova(1).has_mem_accel());
        assert!(!Platform::spatula(2).has_siu());
        assert!(!Platform::spatula(2).has_mem_accel());
        assert!(!Platform::server_cpu().is_accelerated());
    }

    #[test]
    fn no_siu_variant_keeps_mem_but_drops_scatter() {
        let p = Platform::supernova_without_siu(2);
        assert!(!p.has_siu());
        assert!(p.has_mem_accel());
        let scatter = Op::ScatterAdd {
            blocks: 64,
            elems: 2304,
        };
        assert!(
            p.numeric_engine().op_time(&scatter)
                > Platform::supernova(2).numeric_engine().op_time(&scatter)
        );
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = all_platforms().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn supernova_relin_parallelizes_with_cpu_tiles() {
        let one = Platform::supernova(1).relin_time(10_000, 100);
        let four = Platform::supernova(4).relin_time(10_000, 100);
        assert!(four < one);
    }
}
