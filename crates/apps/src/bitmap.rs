//! Real-time bitmap streaming (§4.1).
//!
//! "In our experiments with transmitting real-time bitmap images to
//! workstations, we wanted to obtain the maximum possible communications
//! bandwidth from the HPC. We did so by having the processor originating the
//! bitmap image send it to the HPC interconnect as fast as it could and for
//! the workstation receiving the bitmap to copy it from the HPC directly to
//! its frame buffer. Because all flow control was done by the HPC hardware,
//! the protocol overhead was only the few statements needed to determine
//! where to place the incoming bitmap data in the frame buffer. With this
//! simple technique, we obtained a rate of 3.2 Mbyte/sec, sufficient to
//! refresh a 900x900 pixel portion of a monochrome (bi-level black and
//! white) display 30 times per second from a remote processor."

use desim::{lock, SimDuration, SimTime};
use std::sync::{Arc, Mutex};
use vorx::hpcnet::{NodeAddr, Payload, MAX_PAYLOAD};
use vorx::udco::{self, UdcoMode};
use vorx::VorxBuilder;

/// Parameters of a streaming run.
#[derive(Debug, Clone, Copy)]
pub struct BitmapParams {
    /// Display width in pixels.
    pub width: u32,
    /// Display height in pixels.
    pub height: u32,
    /// Bits per pixel (1 = the paper's bi-level display).
    pub bits_per_pixel: u32,
    /// Frames to stream.
    pub frames: u32,
}

impl BitmapParams {
    /// The paper's display: 900x900 monochrome.
    pub fn paper_900() -> Self {
        BitmapParams {
            width: 900,
            height: 900,
            bits_per_pixel: 1,
            frames: 10,
        }
    }

    /// Bytes per frame.
    pub fn frame_bytes(&self) -> u32 {
        self.width * self.height * self.bits_per_pixel / 8
    }
}

/// Results of a streaming run.
#[derive(Debug, Clone, Copy)]
pub struct BitmapResult {
    /// Total stream time.
    pub elapsed: SimDuration,
    /// Achieved throughput.
    pub mbytes_per_sec: f64,
    /// Achieved refresh rate for the configured display.
    pub fps: f64,
    /// Bytes placed into the frame buffer.
    pub bytes_received: u64,
}

const TAG: u16 = 30;

/// Stream `params.frames` frames from a processing node to a workstation
/// with *no software flow control* — raw UDCO sends paced only by the HPC
/// hardware; the receiver polls the interface and "copies directly to its
/// frame buffer" (the raw-mode FIFO read *is* that copy).
pub fn run_bitmap(params: BitmapParams) -> BitmapResult {
    let mut v = VorxBuilder::single_cluster(2).trace(false).build();
    let frame_bytes = params.frame_bytes();
    let frags_per_frame = frame_bytes.div_ceil(MAX_PAYLOAD);
    let total_msgs = u64::from(params.frames) * u64::from(frags_per_frame);
    let received = Arc::new(Mutex::new(0u64));

    v.spawn("n0:camera", move |ctx| {
        udco::register(&ctx, NodeAddr(0), TAG, UdcoMode::Raw);
        for f in 0..params.frames {
            let mut left = frame_bytes;
            let mut seq = u64::from(f) << 32;
            while left > 0 {
                let chunk = left.min(MAX_PAYLOAD);
                udco::send_raw(
                    &ctx,
                    NodeAddr(0),
                    NodeAddr(1),
                    TAG,
                    seq,
                    Payload::Synthetic(chunk),
                );
                left -= chunk;
                seq += 1;
            }
        }
    });
    let rx_total = Arc::clone(&received);
    v.spawn("n1:display", move |ctx| {
        udco::register(&ctx, NodeAddr(1), TAG, UdcoMode::Raw);
        let mut bytes = 0u64;
        for _ in 0..total_msgs {
            let m = udco::recv_raw_spin(&ctx, NodeAddr(1), TAG);
            // "the few statements needed to determine where to place the
            // incoming bitmap data in the frame buffer"
            bytes += u64::from(m.payload.len());
        }
        *lock(&rx_total) = bytes;
    });
    let end = v.run_all();
    let elapsed = end - SimTime::ZERO;
    let bytes_received = *lock(&received);
    let secs = elapsed.as_secs_f64();
    let mbytes_per_sec = bytes_received as f64 / 1e6 / secs;
    let fps = f64::from(params.frames) / secs;
    BitmapResult {
        elapsed,
        mbytes_per_sec,
        fps,
        bytes_received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_geometry() {
        let p = BitmapParams::paper_900();
        assert_eq!(p.frame_bytes(), 101_250);
    }

    #[test]
    fn stream_reaches_paper_rate_and_30hz() {
        let mut p = BitmapParams::paper_900();
        p.frames = 5;
        let r = run_bitmap(p);
        assert_eq!(r.bytes_received, 5 * 101_250);
        assert!(
            r.mbytes_per_sec > 2.8 && r.mbytes_per_sec < 3.8,
            "throughput {:.2} MB/s should be near the paper's 3.2",
            r.mbytes_per_sec
        );
        assert!(r.fps >= 30.0, "refresh {:.1} fps should reach 30", r.fps);
    }
}
