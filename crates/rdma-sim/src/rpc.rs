//! Control-path RPC to memory-node wimpy cores.
//!
//! Disaggregated memory nodes keep 1–2 weak cores for connection
//! management (paper §2.1). The data path never uses them; the recovery
//! protocol uses them once per failure for active-link termination
//! (§3.2.2 step 2), and setup uses them for region allocation. Each node
//! runs one service thread draining a request channel — deliberately slow
//! and serialized, like a wimpy core.

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::error::{RdmaError, RdmaResult};
use crate::mem::MemoryNode;
use std::sync::Arc;

/// Requests a compute server may send to a memory node's wimpy core.
#[derive(Debug, Clone, Copy)]
pub enum CtrlRequest {
    /// Allocate `len` bytes of registered memory; reply `Alloced(offset)`.
    Alloc { len: u64 },
    /// Active-link termination for `endpoint`.
    Revoke { endpoint: u32 },
    /// Re-admit a previously revoked endpoint.
    Restore { endpoint: u32 },
    /// Liveness probe.
    Ping,
}

/// Replies from the wimpy core.
#[derive(Debug)]
pub enum CtrlResponse {
    Alloced(u64),
    Ok,
    Err(RdmaError),
}

pub(crate) struct CtrlService {
    pub tx: Sender<(CtrlRequest, Sender<CtrlResponse>)>,
}

impl CtrlService {
    /// Spawn the service thread for `node`. The thread exits when the
    /// fabric (holding the sender) is dropped, or the node is killed and
    /// the channel drains.
    pub(crate) fn spawn(node: Arc<MemoryNode>) -> CtrlService {
        let (tx, rx): (Sender<(CtrlRequest, Sender<CtrlResponse>)>, Receiver<_>) = bounded(128);
        std::thread::Builder::new()
            .name(format!("wimpy-core-{}", node.id().0))
            .spawn(move || {
                for (req, reply) in rx.iter() {
                    if !node.is_alive() {
                        let _ = reply.send(CtrlResponse::Err(RdmaError::NodeDead));
                        continue;
                    }
                    let resp = match req {
                        CtrlRequest::Alloc { len } => match node.alloc(len) {
                            Ok(off) => CtrlResponse::Alloced(off),
                            Err(e) => CtrlResponse::Err(e),
                        },
                        CtrlRequest::Revoke { endpoint } => {
                            node.revoke(endpoint);
                            CtrlResponse::Ok
                        }
                        CtrlRequest::Restore { endpoint } => {
                            node.restore(endpoint);
                            CtrlResponse::Ok
                        }
                        CtrlRequest::Ping => CtrlResponse::Ok,
                    };
                    let _ = reply.send(resp);
                }
            })
            .expect("spawn wimpy-core thread");
        CtrlService { tx }
    }
}

/// Client handle for control-path calls to one memory node.
#[derive(Clone)]
pub struct CtrlClient {
    pub(crate) tx: Sender<(CtrlRequest, Sender<CtrlResponse>)>,
}

impl CtrlClient {
    fn call(&self, req: CtrlRequest) -> RdmaResult<CtrlResponse> {
        let (rtx, rrx) = bounded(1);
        self.tx
            .send((req, rtx))
            .map_err(|_| RdmaError::Control("wimpy core service is down".into()))?;
        rrx.recv()
            .map_err(|_| RdmaError::Control("wimpy core dropped the request".into()))
    }

    /// Allocate a region; returns its base offset.
    pub fn alloc(&self, len: u64) -> RdmaResult<u64> {
        match self.call(CtrlRequest::Alloc { len })? {
            CtrlResponse::Alloced(off) => Ok(off),
            CtrlResponse::Err(e) => Err(e),
            other => Err(RdmaError::Control(format!("unexpected reply {other:?}"))),
        }
    }

    /// Active-link termination: after this returns, no verb from
    /// `endpoint` can reach the node's memory.
    pub fn revoke(&self, endpoint: u32) -> RdmaResult<()> {
        match self.call(CtrlRequest::Revoke { endpoint })? {
            CtrlResponse::Ok => Ok(()),
            CtrlResponse::Err(e) => Err(e),
            other => Err(RdmaError::Control(format!("unexpected reply {other:?}"))),
        }
    }

    /// Re-admit an endpoint (false-positive recovery path).
    pub fn restore(&self, endpoint: u32) -> RdmaResult<()> {
        match self.call(CtrlRequest::Restore { endpoint })? {
            CtrlResponse::Ok => Ok(()),
            CtrlResponse::Err(e) => Err(e),
            other => Err(RdmaError::Control(format!("unexpected reply {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> RdmaResult<()> {
        match self.call(CtrlRequest::Ping)? {
            CtrlResponse::Ok => Ok(()),
            CtrlResponse::Err(e) => Err(e),
            other => Err(RdmaError::Control(format!("unexpected reply {other:?}"))),
        }
    }
}
