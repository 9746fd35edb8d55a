//! Per-task PE graphs (Figure 2).

use crate::config::HaloConfig;
use crate::runtime::SourceRoute;
use crate::task::Task;
use halo_kernels::{BbfDesign, Dwt, Fft, LzMatcher, Threshold, XcorConfig};
use halo_noc::{NodeId, Route};
use halo_pe::pes::{
    AesPe, BbfMode, BbfPe, DwtMode, DwtPe, FftPe, GatePe, HjorthPe, InterleaverPe, LicPe, LzPe,
    MaMode, MaPe, NeoPe, RcPe, SvmPe, ThrPe, XcorPe, XcorVariant,
};
use halo_pe::ProcessingElement;

/// Errors raised while constructing a pipeline from a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A kernel rejected its configuration.
    BadConfig(String),
    /// A probe or calibration helper needs a detector stage this task's
    /// pipeline does not have.
    NoDetector {
        /// Label of the task whose pipeline lacks a detector.
        task: &'static str,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadConfig(msg) => write!(f, "invalid pipeline configuration: {msg}"),
            Self::NoDetector { task } => {
                write!(f, "pipeline for {task} has no detector stage to probe")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

fn bad<E: std::fmt::Display>(e: E) -> PipelineError {
    PipelineError::BadConfig(e.to_string())
}

/// A task's PE array plus its routing plan.
///
/// The routes are *not* yet programmed into a fabric — that is the
/// micro-controller's job (§IV-E): [`crate::Controller::program_switches`]
/// runs real RV32 firmware that pokes the switch MMIO register once per
/// route, and the resulting words configure the fabric the runtime
/// validates against the PE array.
pub struct Pipeline {
    /// The PE array, index = [`NodeId`].
    pub pes: Vec<Box<dyn ProcessingElement>>,
    /// Inter-PE circuit routes.
    pub routes: Vec<Route>,
    /// Where the ADC stream enters.
    pub sources: Vec<SourceRoute>,
    /// Node whose output feeds the radio, if any.
    pub radio_from: Option<NodeId>,
    /// Node whose flags feed the micro-controller, if any.
    pub mcu_from: Option<NodeId>,
    /// The classifier/detector node (for feature probing), if any.
    pub detector: Option<NodeId>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("pes", &self.pes.len())
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl Pipeline {
    /// Builds the PE graph for `task` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if any kernel rejects its parameters.
    pub fn build(task: Task, config: &HaloConfig) -> Result<Self, PipelineError> {
        match task {
            Task::SpikeDetectNeo => Self::spike_neo(config),
            Task::SpikeDetectDwt => Self::spike_dwt(config),
            Task::CompressLz4 => Self::compress_lz4(config),
            Task::CompressLzma => Self::compress_lzma(config),
            Task::CompressDwtma => Self::compress_dwtma(config),
            Task::MovementIntent => Self::movement(config),
            Task::SeizurePrediction => Self::seizure(config),
            Task::EncryptRaw => Self::encrypt(config),
        }
    }

    /// ADC → NEO → THR → GATE.ctrl; ADC → GATE.data; GATE → radio.
    fn spike_neo(config: &HaloConfig) -> Result<Self, PipelineError> {
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(NeoPe::with_channels(config.channels)),
            Box::new(ThrPe::new(Threshold::above(config.spike_threshold))),
            Box::new(GatePe::with_channels(
                config.spike_gate_hold,
                config.channels,
                1,
            )),
        ];
        Ok(Self {
            pes,
            routes: vec![
                Route {
                    from: NodeId(0),
                    to: NodeId(1),
                    to_port: 0,
                },
                Route {
                    from: NodeId(1),
                    to: NodeId(2),
                    to_port: 1,
                },
            ],
            sources: vec![
                SourceRoute {
                    to: NodeId(0),
                    port: 0,
                },
                SourceRoute {
                    to: NodeId(2),
                    port: 0,
                },
            ],
            radio_from: Some(NodeId(2)),
            mcu_from: Some(NodeId(1)),
            detector: Some(NodeId(1)),
        })
    }

    /// ADC → INTERLEAVER → DWT → THR → GATE.ctrl; INTERLEAVER → GATE.data.
    fn spike_dwt(config: &HaloConfig) -> Result<Self, PipelineError> {
        let dwt = Dwt::new(config.dwt_levels_spike).map_err(bad)?;
        let granule = dwt.block_multiple();
        let depth = config.interleave_depth.div_ceil(granule) * granule;
        // One THR flag covers 2^levels samples; scale the hold to match.
        let hold = config.spike_gate_hold.div_ceil(granule);
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(InterleaverPe::new(config.channels, depth)),
            Box::new(DwtPe::new(dwt, DwtMode::SpikeDetect, depth)),
            Box::new(ThrPe::new(Threshold::above(config.spike_threshold))),
            Box::new(GatePe::with_channels(hold, 1, granule)),
        ];
        Ok(Self {
            pes,
            routes: vec![
                Route {
                    from: NodeId(0),
                    to: NodeId(1),
                    to_port: 0,
                },
                Route {
                    from: NodeId(0),
                    to: NodeId(3),
                    to_port: 0,
                },
                Route {
                    from: NodeId(1),
                    to: NodeId(2),
                    to_port: 0,
                },
                Route {
                    from: NodeId(2),
                    to: NodeId(3),
                    to_port: 1,
                },
            ],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(3)),
            mcu_from: Some(NodeId(2)),
            detector: Some(NodeId(2)),
        })
    }

    /// ADC → INTERLEAVER → LZ → LIC → radio.
    fn compress_lz4(config: &HaloConfig) -> Result<Self, PipelineError> {
        let matcher = LzMatcher::new(config.lz_history).map_err(bad)?;
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(InterleaverPe::new(config.channels, config.interleave_depth)),
            Box::new(LzPe::new(matcher, config.block_bytes).from_samples()),
            Box::new(LicPe::new()),
        ];
        Ok(Self {
            pes,
            routes: vec![
                Route {
                    from: NodeId(0),
                    to: NodeId(1),
                    to_port: 0,
                },
                Route {
                    from: NodeId(1),
                    to: NodeId(2),
                    to_port: 0,
                },
            ],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(2)),
            mcu_from: None,
            detector: None,
        })
    }

    /// ADC → INTERLEAVER → LZ → MA → RC → radio.
    fn compress_lzma(config: &HaloConfig) -> Result<Self, PipelineError> {
        let matcher = LzMatcher::new(config.lz_history)
            .map_err(bad)?
            .with_min_match(8);
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(InterleaverPe::new(config.channels, config.interleave_depth)),
            Box::new(LzPe::new(matcher, config.block_bytes).from_samples()),
            Box::new(MaPe::new(MaMode::Lzma, config.counter_bits)),
            Box::new(RcPe::new()),
        ];
        Ok(Self {
            pes,
            routes: vec![
                Route {
                    from: NodeId(0),
                    to: NodeId(1),
                    to_port: 0,
                },
                Route {
                    from: NodeId(1),
                    to: NodeId(2),
                    to_port: 0,
                },
                Route {
                    from: NodeId(2),
                    to: NodeId(3),
                    to_port: 0,
                },
            ],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(3)),
            mcu_from: None,
            detector: None,
        })
    }

    /// ADC → INTERLEAVER → DWT → MA → RC → radio.
    fn compress_dwtma(config: &HaloConfig) -> Result<Self, PipelineError> {
        let levels = config.dwt_levels_compress;
        let dwt = Dwt::new(levels).map_err(bad)?;
        let block_samples = (config.block_bytes / 2).max(dwt.block_multiple());
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(InterleaverPe::new(config.channels, config.interleave_depth)),
            Box::new(DwtPe::new(dwt, DwtMode::Compress, block_samples)),
            Box::new(MaPe::new(MaMode::Dwt { levels }, config.counter_bits)),
            Box::new(RcPe::new()),
        ];
        Ok(Self {
            pes,
            routes: vec![
                Route {
                    from: NodeId(0),
                    to: NodeId(1),
                    to_port: 0,
                },
                Route {
                    from: NodeId(1),
                    to: NodeId(2),
                    to_port: 0,
                },
                Route {
                    from: NodeId(2),
                    to: NodeId(3),
                    to_port: 0,
                },
            ],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(3)),
            mcu_from: None,
            detector: None,
        })
    }

    /// ADC → FFT(beta band) → THR(below) → MCU (stimulation).
    fn movement(config: &HaloConfig) -> Result<Self, PipelineError> {
        let fft = Fft::new(config.fft_points).map_err(bad)?;
        let pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(FftPe::with_channels(
                fft,
                config.sample_rate_hz,
                vec![config.beta_band],
                config.channels,
                &config.analysis_channels,
                config.fft_decimate,
            )),
            Box::new(ThrPe::new(Threshold::below(config.movement_threshold))),
        ];
        Ok(Self {
            pes,
            routes: vec![Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            }],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(1)),
            mcu_from: Some(NodeId(1)),
            detector: Some(NodeId(1)),
        })
    }

    /// ADC → {FFT ∥ XCOR ∥ BBF} → SVM → MCU (stimulation) + radio alert.
    fn seizure(config: &HaloConfig) -> Result<Self, PipelineError> {
        let fft = Fft::new(config.fft_points).map_err(bad)?;
        let window = config.feature_window_frames();
        if !window.is_multiple_of(config.xcor_window) {
            return Err(PipelineError::BadConfig(format!(
                "xcor window {} must divide the feature window {window}",
                config.xcor_window
            )));
        }
        let xcor_config = XcorConfig::new(
            config.channels,
            config.xcor_window,
            config.xcor_lag,
            config.xcor_pairs(),
        )
        .map_err(bad)?;
        let bbf_design =
            BbfDesign::new(config.bbf_band.0, config.bbf_band.1, config.sample_rate_hz)
                .map_err(bad)?;
        let svm = SvmPe::with_ports(config.svm_or_placeholder(), config.svm_port_dims());
        let mut pes: Vec<Box<dyn ProcessingElement>> = vec![
            Box::new(FftPe::with_channels(
                fft,
                config.sample_rate_hz,
                config.seizure_bands.clone(),
                config.channels,
                &config.analysis_channels,
                config.fft_decimate,
            )),
            Box::new(XcorPe::new(xcor_config, XcorVariant::Streaming)),
            Box::new(BbfPe::with_channels(
                &bbf_design,
                BbfMode::Energy {
                    window_frames: window,
                },
                config.channels,
                &config.analysis_channels,
            )),
        ];
        let mut sources = vec![
            SourceRoute {
                to: NodeId(0),
                port: 0,
            },
            SourceRoute {
                to: NodeId(1),
                port: 0,
            },
            SourceRoute {
                to: NodeId(2),
                port: 0,
            },
        ];
        if config.use_hjorth {
            // The §VII extension PE slots in like any other: one more node,
            // one more source, one more SVM port.
            pes.push(Box::new(HjorthPe::new(
                config.channels,
                &config.analysis_channels,
                window,
            )));
            sources.push(SourceRoute {
                to: NodeId(3),
                port: 0,
            });
        }
        let svm_node = NodeId(pes.len());
        pes.push(Box::new(svm));
        let mut routes = vec![
            Route {
                from: NodeId(0),
                to: svm_node,
                to_port: 0,
            },
            Route {
                from: NodeId(1),
                to: svm_node,
                to_port: 1,
            },
            Route {
                from: NodeId(2),
                to: svm_node,
                to_port: 2,
            },
        ];
        if config.use_hjorth {
            routes.push(Route {
                from: NodeId(3),
                to: svm_node,
                to_port: 3,
            });
        }
        Ok(Self {
            pes,
            routes,
            sources,
            radio_from: Some(svm_node),
            mcu_from: Some(svm_node),
            detector: Some(svm_node),
        })
    }

    /// ADC → AES → radio.
    fn encrypt(config: &HaloConfig) -> Result<Self, PipelineError> {
        let pes: Vec<Box<dyn ProcessingElement>> =
            vec![Box::new(AesPe::new(config.aes_key).from_samples())];
        Ok(Self {
            pes,
            routes: vec![],
            sources: vec![SourceRoute {
                to: NodeId(0),
                port: 0,
            }],
            radio_from: Some(NodeId(0)),
            mcu_from: None,
            detector: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_noc::Fabric;

    #[test]
    fn every_task_builds_and_validates() {
        let config = HaloConfig::small_test(4);
        for task in Task::all() {
            let p = Pipeline::build(task, &config).unwrap_or_else(|e| {
                panic!("{task}: {e}");
            });
            let mut fabric = Fabric::new();
            for r in &p.routes {
                fabric.connect(*r).unwrap();
            }
            let refs: Vec<&dyn ProcessingElement> = p.pes.iter().map(|b| b.as_ref()).collect();
            fabric.validate(&refs).unwrap_or_else(|e| {
                panic!("{task}: {e}");
            });
        }
    }

    #[test]
    fn seizure_rejects_misaligned_windows() {
        let mut config = HaloConfig::small_test(4);
        config.xcor_window = 999; // does not divide 256 * 8
        assert!(Pipeline::build(Task::SeizurePrediction, &config).is_err());
    }

    #[test]
    fn compression_tasks_target_the_radio() {
        let config = HaloConfig::small_test(4);
        for task in [Task::CompressLz4, Task::CompressLzma, Task::CompressDwtma] {
            let p = Pipeline::build(task, &config).unwrap();
            assert!(p.radio_from.is_some(), "{task}");
            assert!(p.mcu_from.is_none(), "{task}");
        }
    }

    #[test]
    fn closed_loop_tasks_reach_the_mcu() {
        let config = HaloConfig::small_test(4);
        for task in [Task::MovementIntent, Task::SeizurePrediction] {
            let p = Pipeline::build(task, &config).unwrap();
            assert!(p.mcu_from.is_some(), "{task}");
        }
    }
}
