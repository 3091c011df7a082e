//! A Rapport-style multimedia conference (§1).
//!
//! "Because HPC/VORX allows high performance communications with
//! workstations, it can be used to experiment with applications such as
//! multimedia conferencing between workstations, with real-time video and
//! high-fidelity audio transmission between conferees."
//!
//! N workstation conferees exchange two media streams over raw UDCOs (the
//! low-latency path real-time traffic needs):
//!
//! * **audio** — 64 kbit/s per conferee: a 64-byte frame every 8 ms, with a
//!   hard playout deadline;
//! * **video** — ~1 Mbit/s per conferee: an 8 KB frame every 66 ms (15 fps),
//!   fragmented into hardware frames.
//!
//! Each receiver tracks per-stream end-to-end latency, jitter, and audio
//! deadline misses. Frames carry their send timestamp in the `seq` field.

use std::sync::{Arc, Mutex};

use desim::{lock, SimDuration, SimTime};
use vorx::hpcnet::{NodeAddr, Payload, MAX_PAYLOAD};
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

use crate::fft2d::topology_for;

/// Audio UDCO tag base (per-sender tags: base + sender index).
const AUDIO_BASE: u16 = 100;
/// Video UDCO tag base.
const VIDEO_BASE: u16 = 200;

/// Conference parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConferenceParams {
    /// Number of conferees (workstations).
    pub conferees: usize,
    /// Conference duration.
    pub duration_ms: u64,
    /// Audio frame interval (8 ms = 64 kbit/s at 64-byte frames).
    pub(crate) audio_period_ms: u64,
    /// Audio playout deadline (end-to-end).
    pub(crate) audio_deadline_ms: u64,
    /// Video frame bytes (8 KB default).
    pub(crate) video_frame_bytes: u32,
    /// Video frame interval (66 ms ≈ 15 fps).
    pub(crate) video_period_ms: u64,
    /// Send video at all (audio-only conferences disable it).
    pub with_video: bool,
}

impl ConferenceParams {
    /// A three-way audio+video conference, one second long.
    pub fn default_3way() -> Self {
        ConferenceParams {
            conferees: 3,
            duration_ms: 1000,
            audio_period_ms: 8,
            audio_deadline_ms: 20,
            video_frame_bytes: 8 * 1024,
            video_period_ms: 66,
            with_video: true,
        }
    }
}

/// Per-stream reception statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Mean end-to-end latency, µs.
    pub mean_latency_us: f64,
    /// Worst end-to-end latency, µs.
    pub max_latency_us: f64,
    /// Mean |latency - mean| (jitter), µs.
    pub jitter_us: f64,
    /// Frames past their deadline.
    pub deadline_misses: u64,
}

fn finish(lat_us: &[f64], deadline_us: f64) -> StreamStats {
    if lat_us.is_empty() {
        return StreamStats::default();
    }
    let n = lat_us.len() as f64;
    let mean = lat_us.iter().sum::<f64>() / n;
    StreamStats {
        mean_latency_us: mean,
        max_latency_us: lat_us.iter().copied().fold(0.0, f64::max),
        jitter_us: lat_us.iter().map(|l| (l - mean).abs()).sum::<f64>() / n,
        deadline_misses: lat_us.iter().filter(|l| **l > deadline_us).count() as u64,
    }
}

/// Conference results: aggregated over every receiver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConferenceResult {
    /// Audio reception statistics.
    pub audio: StreamStats,
    /// Video reception statistics (zero when video is disabled).
    pub video: StreamStats,
}

/// Run the conference; see module docs.
pub fn run_conference(p: ConferenceParams) -> ConferenceResult {
    assert!(p.conferees >= 2);
    let mut v = VorxBuilder::with_topology(topology_for(p.conferees))
        .trace(false)
        .build();
    let audio_lat = Arc::new(Mutex::new(Vec::<f64>::new()));
    let video_lat = Arc::new(Mutex::new(Vec::<f64>::new()));

    let audio_frames = p.duration_ms / p.audio_period_ms;
    let video_frames = if p.with_video {
        p.duration_ms / p.video_period_ms
    } else {
        0
    };
    let video_frags = p.video_frame_bytes.div_ceil(MAX_PAYLOAD) as u64;

    for me in 0..p.conferees {
        let node = NodeAddr(me as u32);
        let others: Vec<NodeAddr> = (0..p.conferees)
            .filter(|q| *q != me)
            .map(|q| NodeAddr(q as u32))
            .collect();

        // Sender: paced audio + video to every other conferee.
        let peers = others.clone();
        v.spawn(format!("n{me}:send"), move |ctx| {
            udco::register(&ctx, node, AUDIO_BASE + me as u16, UdcoMode::Raw);
            udco::register(&ctx, node, VIDEO_BASE + me as u16, UdcoMode::Raw);
            let mut next_audio = SimTime::ZERO;
            let mut next_video = SimTime::ZERO;
            for _ in 0..audio_frames {
                // Sleep to the next audio tick; interleave video ticks.
                while ctx.now() < next_audio {
                    ctx.sleep(next_audio - ctx.now());
                }
                let stamp = ctx.now().as_ns();
                for &peer in &peers {
                    udco::send_raw(
                        &ctx,
                        node,
                        peer,
                        AUDIO_BASE + me as u16,
                        stamp,
                        Payload::Synthetic(64),
                    );
                }
                next_audio += SimDuration::from_ms(p.audio_period_ms);
                if video_frames > 0 && ctx.now() >= next_video {
                    let stamp = ctx.now().as_ns();
                    for &peer in &peers {
                        let mut left = p.video_frame_bytes;
                        while left > 0 {
                            let chunk = left.min(MAX_PAYLOAD);
                            udco::send_raw(
                                &ctx,
                                node,
                                peer,
                                VIDEO_BASE + me as u16,
                                stamp,
                                Payload::Synthetic(chunk),
                            );
                            left -= chunk;
                        }
                    }
                    next_video += SimDuration::from_ms(p.video_period_ms);
                }
            }
        });

        // Receiver: drain every peer's streams, recording latencies.
        let alat = Arc::clone(&audio_lat);
        let vlat = Arc::clone(&video_lat);
        let peers = others;
        v.spawn(format!("n{me}:recv"), move |ctx| {
            for &peer in &peers {
                udco::register(&ctx, node, AUDIO_BASE + peer.0 as u16, UdcoMode::Raw);
                udco::register(&ctx, node, VIDEO_BASE + peer.0 as u16, UdcoMode::Raw);
            }
            let expect_audio = audio_frames * peers.len() as u64;
            let expect_video_frags = video_frames * video_frags * peers.len() as u64;
            let mut got_audio = 0;
            let mut got_video = 0;
            while got_audio < expect_audio || got_video < expect_video_frags {
                let mut progressed = false;
                for &peer in &peers {
                    while let Some(m) = udco::try_recv_raw(&ctx, node, AUDIO_BASE + peer.0 as u16) {
                        let lat = (ctx.now().as_ns() - m.seq) as f64 / 1000.0;
                        lock(&alat).push(lat);
                        got_audio += 1;
                        progressed = true;
                    }
                    while let Some(m) = udco::try_recv_raw(&ctx, node, VIDEO_BASE + peer.0 as u16) {
                        let lat = (ctx.now().as_ns() - m.seq) as f64 / 1000.0;
                        lock(&vlat).push(lat);
                        got_video += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    ctx.sleep(SimDuration::from_us(500));
                }
            }
        });
    }

    v.run_all();
    let audio = finish(&lock(&audio_lat), p.audio_deadline_ms as f64 * 1000.0);
    let video = finish(&lock(&video_lat), f64::MAX);
    ConferenceResult { audio, video }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_way_audio_meets_deadlines() {
        let mut p = ConferenceParams::default_3way();
        p.with_video = false;
        p.duration_ms = 400;
        let r = run_conference(p);
        assert_eq!(
            r.audio.deadline_misses, 0,
            "audio missed deadlines: mean {:.0}us max {:.0}us",
            r.audio.mean_latency_us, r.audio.max_latency_us
        );
        assert!(r.audio.max_latency_us < 20_000.0);
    }

    #[test]
    fn video_load_does_not_break_audio() {
        let mut p = ConferenceParams::default_3way();
        p.duration_ms = 400;
        let r = run_conference(p);
        assert!(r.video.max_latency_us > 0.0, "video frames flowed");
        // Audio still under deadline even with ~3 Mbit/s of video flowing.
        assert_eq!(
            r.audio.deadline_misses, 0,
            "audio degraded under video: max {:.0}us",
            r.audio.max_latency_us
        );
    }

    #[test]
    fn five_way_conference_scales() {
        let mut p = ConferenceParams::default_3way();
        p.conferees = 5;
        p.duration_ms = 250;
        p.with_video = false;
        let r = run_conference(p);
        assert_eq!(r.audio.deadline_misses, 0);
    }
}
