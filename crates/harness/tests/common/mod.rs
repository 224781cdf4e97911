//! What the harness's integration tests share: injecting a small scripted
//! workload and keeping the checker's record of it.

// Test-side issued-op bookkeeping; hash order never feeds the engine.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use coterie_core::{ClientRequest, PartialWrite, StepDriver};
use coterie_harness::workload::IssuedOp;
use coterie_quorum::NodeId;
use coterie_simnet::SimDuration;

/// Injects `ops` (id, coordinator, Some(write) | None for a read) into the
/// driver 1 ms apart and returns the checker's issued-op map.
pub fn inject(
    driver: &mut StepDriver,
    ops: &[(u64, u32, Option<PartialWrite>)],
) -> HashMap<u64, IssuedOp> {
    let mut issued = HashMap::new();
    for (id, node, write) in ops.iter().cloned() {
        driver.advance(SimDuration::from_millis(1));
        let request = match write {
            Some(write) => ClientRequest::Write { id, write },
            None => ClientRequest::Read { id },
        };
        issued.insert(id, IssuedOp::new(driver.now(), NodeId(node), &request));
        driver.inject(NodeId(node), request);
    }
    issued
}
