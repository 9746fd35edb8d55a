//! BBF processing element.

use crate::error::PeError;
use crate::fifo::Fifo;
use crate::token::{InterfaceKind, Token};
use crate::traits::{push_each, Delivery, PeKind, ProcessingElement};
use halo_kernels::{Bbf, BbfDesign, ChannelBlock};

/// Output mode of the BBF PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbfMode {
    /// Emit the filtered sample stream (same interleaving as the input).
    Stream,
    /// Emit one band-energy value per selected channel per window of
    /// `window_frames` input frames — the feature form the SVM consumes in
    /// the seizure-prediction pipeline.
    Energy {
        /// Window length in frames (one frame = one sample per channel).
        window_frames: usize,
    },
}

/// The Butterworth-bandpass PE.
///
/// Operates on a `channels`-way frame-interleaved stream with per-channel
/// biquad state, filtering only the selected channels (a §IV-E PE
/// parameter); unselected channels pass through unfiltered in stream mode
/// and are ignored in energy mode.
#[derive(Debug)]
pub struct BbfPe {
    lanes: Vec<Option<Bbf>>,
    mode: BbfMode,
    acc: Vec<i64>,
    frame_pos: usize,
    frames_seen: usize,
    out: Fifo,
    // Reusable SoA pivot for the batched push path.
    scratch: ChannelBlock,
}

impl BbfPe {
    /// Creates a single-channel streaming BBF PE.
    pub fn new(design: &BbfDesign, mode: BbfMode) -> Self {
        Self::with_channels(design, mode, 1, &[0])
    }

    /// Creates a BBF PE over `channels` interleaved channels, filtering
    /// the channels listed in `select`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero, `select` is empty or references a
    /// channel out of range, or an energy window is zero.
    pub fn with_channels(
        design: &BbfDesign,
        mode: BbfMode,
        channels: usize,
        select: &[u8],
    ) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(!select.is_empty(), "select at least one channel");
        if let BbfMode::Energy { window_frames } = mode {
            assert!(window_frames > 0, "energy window must be positive");
        }
        let mut lanes: Vec<Option<Bbf>> = vec![None; channels];
        for &c in select {
            assert!((c as usize) < channels, "selected channel {c} out of range");
            lanes[c as usize] = Some(Bbf::new(design));
        }
        Self {
            lanes,
            mode,
            acc: vec![0; channels],
            frame_pos: 0,
            frames_seen: 0,
            out: Fifo::new(),
            scratch: ChannelBlock::new(),
        }
    }

    /// Channels with a filter lane, in index order.
    pub fn selected(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|_| i))
            .collect()
    }

    fn emit_energies(&mut self) {
        for (c, lane) in self.lanes.iter().enumerate() {
            if lane.is_some() {
                self.out.push(Token::Value(self.acc[c]));
            }
        }
        for a in &mut self.acc {
            *a = 0;
        }
        self.frames_seen = 0;
    }
}

impl ProcessingElement for BbfPe {
    fn kind(&self) -> PeKind {
        PeKind::Bbf
    }

    fn input_ports(&self) -> &[InterfaceKind] {
        &[InterfaceKind::Samples]
    }

    fn output_kind(&self) -> InterfaceKind {
        match self.mode {
            BbfMode::Stream => InterfaceKind::Samples,
            BbfMode::Energy { .. } => InterfaceKind::Values,
        }
    }

    fn push(&mut self, port: usize, token: Token) -> Result<(), PeError> {
        self.check_port(port, &token)?;
        match token {
            Token::Sample(s) => {
                let c = self.frame_pos;
                let y = match &mut self.lanes[c] {
                    Some(bbf) => bbf.process(s),
                    None => s,
                };
                match self.mode {
                    BbfMode::Stream => self.out.push(Token::Sample(y)),
                    BbfMode::Energy { window_frames } => {
                        if self.lanes[c].is_some() {
                            self.acc[c] += y as i64 * y as i64;
                        }
                        if self.frame_pos + 1 == self.lanes.len() {
                            self.frames_seen += 1;
                            if self.frames_seen == window_frames {
                                self.emit_energies();
                            }
                        }
                    }
                }
                self.frame_pos = (self.frame_pos + 1) % self.lanes.len();
            }
            Token::BlockEnd { .. } => self.out.push(token),
            _ => unreachable!("validated by check_port"),
        }
        Ok(())
    }

    fn pull(&mut self) -> Option<Token> {
        self.out.pop()
    }

    fn quiet_frames(&self, frame_samples: usize) -> u64 {
        if frame_samples != self.lanes.len() || self.frame_pos != 0 {
            return 0;
        }
        match self.mode {
            // Stream mode emits every sample; never quiet.
            BbfMode::Stream => 0,
            // The window-completing frame itself is not quiet.
            BbfMode::Energy { window_frames } => {
                ((window_frames - self.frames_seen) as u64).saturating_sub(1)
            }
        }
    }

    fn push_samples(&mut self, port: usize, samples: &[i16]) -> Delivery {
        let channels = self.lanes.len();
        let batchable = self.check_port(port, &Token::Sample(0)).is_ok()
            && matches!(self.mode, BbfMode::Energy { .. })
            && self.frame_pos == 0
            && samples.len().is_multiple_of(channels);
        if !batchable {
            return push_each(self, port, samples.iter().map(|&s| Token::Sample(s)));
        }
        let BbfMode::Energy { window_frames } = self.mode else {
            unreachable!("checked above");
        };
        let frames = samples.len() / channels;
        // Samples consumed before the output first held a token.
        let mut first_out = (!self.out.is_empty()).then_some(0);
        self.scratch.fill_from_interleaved(samples, channels);
        let mut f = 0;
        while f < frames {
            let run = (window_frames - self.frames_seen).min(frames - f);
            // Each selected lane filters its contiguous row segment and
            // accumulates y² — the same per-sample arithmetic, minus the
            // per-token dispatch and de-interleaving.
            for (c, lane) in self.lanes.iter_mut().enumerate() {
                if let Some(bbf) = lane {
                    self.acc[c] += bbf.energy_of(&self.scratch.channel(c)[f..f + run]);
                }
            }
            self.frames_seen += run;
            f += run;
            if self.frames_seen == window_frames {
                self.emit_energies();
                if !self.out.is_empty() {
                    first_out.get_or_insert(f * channels);
                }
            }
        }
        Delivery::clean(samples.len(), first_out)
    }

    fn flush(&mut self) {
        if matches!(self.mode, BbfMode::Energy { .. }) && self.frames_seen > 0 {
            self.emit_energies();
        }
        for lane in self.lanes.iter_mut().flatten() {
            lane.reset();
        }
        self.frame_pos = 0;
    }

    fn output_fifo(&self) -> Option<&Fifo> {
        Some(&self.out)
    }

    fn output_fifo_mut(&mut self) -> Option<&mut Fifo> {
        Some(&mut self.out)
    }

    fn memory_bytes(&self) -> usize {
        // Coefficients plus per-selected-channel section state.
        64 + self.selected().len() * 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> BbfDesign {
        BbfDesign::new(50.0, 150.0, 1000).unwrap()
    }

    #[test]
    fn stream_mode_matches_kernel() {
        let mut kernel = Bbf::new(&design());
        let mut pe = BbfPe::new(&design(), BbfMode::Stream);
        for t in 0..100i16 {
            let x = (t % 17) * 100;
            pe.push(0, Token::Sample(x)).unwrap();
            assert_eq!(pe.pull(), Some(Token::Sample(kernel.process(x))));
        }
    }

    #[test]
    fn energy_mode_accumulates_per_channel() {
        // Two channels, both selected; ch1 sees double amplitude.
        let mut pe =
            BbfPe::with_channels(&design(), BbfMode::Energy { window_frames: 50 }, 2, &[0, 1]);
        for t in 0..50 {
            let x = (8000.0 * (std::f64::consts::TAU * 100.0 * t as f64 / 1000.0).sin()) as i16;
            pe.push(0, Token::Sample(x / 2)).unwrap();
            pe.push(0, Token::Sample(x)).unwrap();
        }
        let e0 = match pe.pull() {
            Some(Token::Value(v)) => v,
            other => panic!("expected energy, got {other:?}"),
        };
        let e1 = match pe.pull() {
            Some(Token::Value(v)) => v,
            other => panic!("expected energy, got {other:?}"),
        };
        assert!(e1 > 3 * e0, "ch1 {e1} should carry ~4x ch0 {e0}");
        assert_eq!(pe.pull(), None);
    }

    #[test]
    fn unselected_channels_pass_through_in_stream_mode() {
        let mut pe = BbfPe::with_channels(&design(), BbfMode::Stream, 2, &[0]);
        pe.push(0, Token::Sample(500)).unwrap(); // ch0: filtered
        pe.push(0, Token::Sample(500)).unwrap(); // ch1: pass-through
        let _ch0 = pe.pull().unwrap();
        assert_eq!(pe.pull(), Some(Token::Sample(500)));
    }

    #[test]
    fn flush_emits_partial_energy_window() {
        let mut pe =
            BbfPe::with_channels(&design(), BbfMode::Energy { window_frames: 100 }, 1, &[0]);
        pe.push(0, Token::Sample(1000)).unwrap();
        assert_eq!(pe.pull(), None);
        pe.flush();
        assert!(matches!(pe.pull(), Some(Token::Value(_))));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_selection_rejected() {
        let _ = BbfPe::with_channels(&design(), BbfMode::Stream, 2, &[2]);
    }
}
