//! `cdb`, the communications debugger (§6.1).
//!
//! "The VORX communications debugger, cdb, helps debug such deadlocked
//! applications by allowing the programmer to examine the communications
//! state of the application. [...] For each channel, the state reported by
//! cdb consists of the name of the channel, which two processes it connects,
//! how many messages have been sent in each direction on the channel and
//! most importantly, the state of each end of the channel. [...] Because an
//! application may have a large number of channels, cdb includes several
//! filters to help isolate the channels of interest."
//!
//! Exactly as the paper notes, this "was easy to implement because most of
//! the information that it needs was already encoded in the communications
//! driver": we read it straight out of the kernels' channel tables.

use std::collections::{BTreeMap, BTreeSet};

use vorx::hpcnet::NodeAddr;
use vorx::World;

/// The state of one channel end as reported by `cdb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndState {
    /// Nothing blocked on this end.
    Idle,
    /// A process is blocked reading.
    ReaderBlocked,
    /// A process is blocked writing (awaiting the kernel ack).
    WriterBlocked,
    /// Both (distinct subprocesses) are blocked.
    BothBlocked,
}

impl std::fmt::Display for EndState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EndState::Idle => "idle",
            EndState::ReaderBlocked => "blocked-read",
            EndState::WriterBlocked => "blocked-write",
            EndState::BothBlocked => "blocked-both",
        };
        write!(f, "{s}")
    }
}

/// Snapshot of one channel end.
#[derive(Debug, Clone)]
pub struct EndReport {
    /// The node holding this end.
    pub node: NodeAddr,
    /// The peer node.
    pub peer: NodeAddr,
    /// Fragments sent from this end.
    pub msgs_tx: u64,
    /// Messages delivered to readers at this end.
    pub msgs_rx: u64,
    /// Complete messages waiting in side buffers.
    pub queued: usize,
    /// Blocking state.
    pub state: EndState,
    /// Close state: `(closed locally, peer closed)`.
    pub closed: (bool, bool),
}

/// Snapshot of one channel (one or two ends, across the machine).
#[derive(Debug, Clone)]
pub struct ChanReport {
    /// Channel id.
    pub id: u32,
    /// Channel name.
    pub name: String,
    /// The ends, ordered by node.
    pub ends: Vec<EndReport>,
}

/// Filters, per §6.1 ("cdb includes several filters to help isolate the
/// channels of interest").
#[derive(Debug, Clone, Default)]
pub struct CdbFilter {
    /// Keep channels whose name starts with this prefix.
    pub name_prefix: Option<String>,
    /// Keep channels with an end on this node.
    pub node: Option<NodeAddr>,
    /// Keep only channels with a blocked end.
    pub blocked_only: bool,
}

impl CdbFilter {
    /// No filtering.
    pub fn all() -> Self {
        Self::default()
    }

    fn keep(&self, c: &ChanReport) -> bool {
        if let Some(p) = &self.name_prefix {
            if !c.name.starts_with(p.as_str()) {
                return false;
            }
        }
        if let Some(n) = self.node {
            if !c.ends.iter().any(|e| e.node == n) {
                return false;
            }
        }
        if self.blocked_only && c.ends.iter().all(|e| e.state == EndState::Idle) {
            return false;
        }
        true
    }
}

/// Take a snapshot of every channel in the installation.
pub fn snapshot(w: &World) -> Vec<ChanReport> {
    let mut by_id: BTreeMap<u32, ChanReport> = BTreeMap::new();
    for node in &w.nodes {
        for end in w.chan_ends.of(node) {
            let state = match (end.reader_blocked, end.writer_blocked) {
                (false, false) => EndState::Idle,
                (true, false) => EndState::ReaderBlocked,
                (false, true) => EndState::WriterBlocked,
                (true, true) => EndState::BothBlocked,
            };
            let rep = EndReport {
                node: node.addr,
                peer: end.peer,
                msgs_tx: end.msgs_tx,
                msgs_rx: end.msgs_rx,
                queued: end.rx.len(),
                state,
                closed: (end.closed_local, end.closed_remote),
            };
            by_id
                .entry(end.id)
                .or_insert_with(|| ChanReport {
                    id: end.id,
                    name: end.name.clone(),
                    ends: Vec::new(),
                })
                .ends
                .push(rep);
        }
    }
    let mut out: Vec<ChanReport> = by_id.into_values().collect();
    for c in &mut out {
        c.ends.sort_by_key(|e| e.node);
    }
    out
}

/// Snapshot with a filter applied.
pub fn filtered(w: &World, f: &CdbFilter) -> Vec<ChanReport> {
    snapshot(w).into_iter().filter(|c| f.keep(c)).collect()
}

/// Render reports as the `cdb` listing.
pub fn render(reports: &[ChanReport]) -> String {
    let mut out = String::new();
    out.push_str("cdb: channel state\n");
    out.push_str(&format!(
        "{:<6} {:<16} {:<6} {:<6} {:>8} {:>8} {:>7}  {}\n",
        "chan", "name", "node", "peer", "msgs-tx", "msgs-rx", "queued", "state"
    ));
    for c in reports {
        for e in &c.ends {
            let closed = match e.closed {
                (false, false) => "",
                (true, false) => " [closed]",
                (false, true) => " [peer-closed]",
                (true, true) => " [both-closed]",
            };
            out.push_str(&format!(
                "{:<6} {:<16} {:<6} {:<6} {:>8} {:>8} {:>7}  {}{}\n",
                c.id,
                c.name,
                e.node.to_string(),
                e.peer.to_string(),
                e.msgs_tx,
                e.msgs_rx,
                e.queued,
                e.state,
                closed
            ));
        }
    }
    out
}

/// Deadlock analysis: build the wait-for graph between nodes (a blocked
/// reader waits for its peer; a blocked writer waits for its peer's ack)
/// and return every cycle found. A non-empty result is the classic §6.1
/// symptom: "the application stops running with each process waiting for
/// input from another process."
pub fn deadlock_cycles(w: &World) -> Vec<Vec<NodeAddr>> {
    let mut edges: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for c in snapshot(w) {
        for e in &c.ends {
            if e.state != EndState::Idle {
                edges.entry(e.node.0).or_default().push(e.peer.0);
            }
        }
    }
    // DFS cycle enumeration (small graphs; dedupe by rotation).
    let mut cycles: Vec<Vec<u32>> = Vec::new();
    for &start in edges.keys() {
        let mut stack = vec![start];
        dfs(start, start, &edges, &mut stack, &mut cycles);
    }
    // Normalize: rotate each cycle so it starts at its minimum, dedupe.
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for mut cyc in cycles {
        let min_pos = cyc
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap_or(0);
        cyc.rotate_left(min_pos);
        if seen.insert(cyc.clone()) {
            out.push(cyc.into_iter().map(NodeAddr).collect());
        }
    }
    out
}

fn dfs(
    start: u32,
    here: u32,
    edges: &BTreeMap<u32, Vec<u32>>,
    stack: &mut Vec<u32>,
    cycles: &mut Vec<Vec<u32>>,
) {
    if let Some(nexts) = edges.get(&here) {
        for &n in nexts {
            if n == start && stack.len() > 1 {
                cycles.push(stack.clone());
            } else if n > start && !stack.contains(&n) {
                stack.push(n);
                dfs(start, n, edges, stack, cycles);
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vorx::channel;
    use vorx::hpcnet::Payload;
    use vorx::VorxBuilder;

    #[test]
    fn snapshot_reports_counts_and_states() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "alpha");
            ch.write(&ctx, Payload::Synthetic(8)).unwrap();
            ch.write(&ctx, Payload::Synthetic(8)).unwrap();
        });
        v.spawn("n2:r", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "alpha");
            let _ = ch.read(&ctx).unwrap();
            let _ = ch.read(&ctx).unwrap();
            // Now block reading a third message that never comes.
            let _ = ch.read(&ctx).unwrap();
        });
        v.run(); // reader parks
        let w = v.world();
        let snap = snapshot(&w);
        assert_eq!(snap.len(), 1);
        let c = &snap[0];
        assert_eq!(c.name, "alpha");
        assert_eq!(c.ends.len(), 2);
        let writer_end = c.ends.iter().find(|e| e.node == NodeAddr(1)).unwrap();
        let reader_end = c.ends.iter().find(|e| e.node == NodeAddr(2)).unwrap();
        assert_eq!(writer_end.msgs_tx, 2);
        assert_eq!(reader_end.msgs_rx, 2);
        assert_eq!(reader_end.state, EndState::ReaderBlocked);
        let listing = render(&snap);
        assert!(listing.contains("alpha"));
        assert!(listing.contains("blocked-read"));
    }

    #[test]
    fn filters_isolate_channels() {
        let mut v = VorxBuilder::single_cluster(5).build();
        for (a, b, name) in [(1u32, 2u32, "srv/a"), (3, 4, "cli/b")] {
            v.spawn(format!("n{a}"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(a), name);
                ch.write(&ctx, Payload::Synthetic(1)).unwrap();
            });
            v.spawn(format!("n{b}"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(b), name);
                let _ = ch.read(&ctx).unwrap();
                let _ = ch.read(&ctx).unwrap(); // blocks forever
            });
        }
        v.run();
        let w = v.world();
        assert_eq!(snapshot(&w).len(), 2);
        let by_name = filtered(
            &w,
            &CdbFilter {
                name_prefix: Some("srv/".into()),
                ..Default::default()
            },
        );
        assert_eq!(by_name.len(), 1);
        assert_eq!(by_name[0].name, "srv/a");
        let by_node = filtered(
            &w,
            &CdbFilter {
                node: Some(NodeAddr(3)),
                ..Default::default()
            },
        );
        assert_eq!(by_node.len(), 1);
        assert_eq!(by_node[0].name, "cli/b");
        let blocked = filtered(
            &w,
            &CdbFilter {
                blocked_only: true,
                ..Default::default()
            },
        );
        assert_eq!(blocked.len(), 2); // both readers are blocked
    }

    #[test]
    fn detects_a_two_node_deadlock_cycle() {
        // The classic bug: both sides read first.
        let mut v = VorxBuilder::single_cluster(3).build();
        for (me, _other) in [(1u32, 2u32), (2, 1)] {
            v.spawn(format!("n{me}"), move |ctx| {
                let ch = channel::open(&ctx, NodeAddr(me), "dead");
                let _ = ch.read(&ctx).unwrap(); // both block: deadlock
                ch.write(&ctx, Payload::Synthetic(1)).unwrap();
            });
        }
        let report = v.run();
        assert_eq!(report.parked.len(), 2);
        let w = v.world();
        let cycles = deadlock_cycles(&w);
        assert_eq!(cycles.len(), 1);
        let mut cyc = cycles[0].clone();
        cyc.sort();
        assert_eq!(cyc, vec![NodeAddr(1), NodeAddr(2)]);
    }

    #[test]
    fn healthy_app_has_no_cycles() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "ok");
            ch.write(&ctx, Payload::Synthetic(4)).unwrap();
        });
        v.spawn("n2", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "ok");
            let _ = ch.read(&ctx).unwrap();
        });
        v.run_all();
        assert!(deadlock_cycles(&v.world()).is_empty());
    }
}

#[cfg(test)]
mod close_tests {
    use super::*;
    use vorx::channel;
    use vorx::VorxBuilder;

    #[test]
    fn listing_shows_closed_ends() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "done");
            ch.close(&ctx);
        });
        v.spawn("n2", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "done");
            let _ = ch.read(&ctx);
        });
        v.run_all();
        let w = v.world();
        let listing = render(&snapshot(&w));
        assert!(listing.contains("[closed]"), "{listing}");
        assert!(listing.contains("[peer-closed]"), "{listing}");
    }
}
