//! Idiomatic RAII layer over the eight primitives.
//!
//! [`Sender`] and [`Receiver`] wrap an open connection and close it on
//! drop, so a panicking participant still leaves the conversation — the
//! dynamic join/leave discipline the LNVC model is built around, made
//! automatic.  Everything here is a call on the owning process's view
//! ([`Mpf::view`]); no semantics are added.

use mpf_shm::process::ProcessId;

use crate::engine::IpcMpf;
use crate::error::{MpfError, Result};
use crate::facility::Mpf;
use crate::types::{LnvcId, Protocol};

/// An open send connection; closed on drop.
#[derive(Debug)]
pub struct Sender<'a> {
    view: &'a IpcMpf,
    pid: ProcessId,
    id: LnvcId,
}

impl<'a> Sender<'a> {
    /// The connection's LNVC identifier.
    pub fn id(&self) -> LnvcId {
        self.id
    }

    /// The owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Asynchronously sends `buf` into the conversation, waiting for a
    /// consumer to free room when the region is full
    /// ([`IpcMpf::send_deadline`] with no deadline).
    pub fn send(&self, buf: &[u8]) -> Result<()> {
        self.view.send_deadline(self.id, buf, None)
    }

    /// Closes explicitly, reporting errors that drop would swallow.
    pub fn close(self) -> Result<()> {
        let result = self.view.close_send(self.id);
        std::mem::forget(self);
        result
    }
}

impl Drop for Sender<'_> {
    fn drop(&mut self) {
        let _ = self.view.close_send(self.id);
    }
}

/// An open receive connection; closed on drop.
#[derive(Debug)]
pub struct Receiver<'a> {
    view: &'a IpcMpf,
    pid: ProcessId,
    id: LnvcId,
    protocol: Protocol,
}

impl<'a> Receiver<'a> {
    /// The connection's LNVC identifier.
    pub fn id(&self) -> LnvcId {
        self.id
    }

    /// The owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The protocol declared at open.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Blocking receive into `buf`; returns bytes transferred.
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        self.view.message_receive(self.id, buf)
    }

    /// Blocking receive into a fresh `Vec` (a batch of one).
    pub fn recv_vec(&self) -> Result<Vec<u8>> {
        let mut one = self.view.recv_batch(self.id, 1)?;
        Ok(one.pop().expect("a blocking batch of one delivers one"))
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_recv(&self, buf: &mut [u8]) -> Result<Option<usize>> {
        self.view.try_message_receive(self.id, buf)
    }

    /// `check_receive`: is a message waiting?  (Advisory for FCFS.)
    pub fn check(&self) -> Result<bool> {
        self.view.check_receive(self.id)
    }

    /// An iterator of messages that ends when the conversation dies
    /// (i.e. when every other participant has left and the LNVC is
    /// deleted under us).
    pub fn iter(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        std::iter::from_fn(move || match self.recv_vec() {
            Ok(v) => Some(v),
            Err(MpfError::UnknownLnvc | MpfError::NotConnected) => None,
            Err(e) => panic!("receive failed: {e}"),
        })
    }

    /// Closes explicitly, reporting errors that drop would swallow.
    pub fn close(self) -> Result<()> {
        let result = self.view.close_receive(self.id);
        std::mem::forget(self);
        result
    }
}

impl Drop for Receiver<'_> {
    fn drop(&mut self) {
        let _ = self.view.close_receive(self.id);
    }
}

impl Mpf {
    /// Opens a send connection wrapped in a droppable [`Sender`].
    pub fn sender(&self, pid: ProcessId, name: &str) -> Result<Sender<'_>> {
        let view = self.view(pid)?;
        let id = view.open_send(name)?;
        Ok(Sender { view, pid, id })
    }

    /// Opens a receive connection wrapped in a droppable [`Receiver`].
    pub fn receiver(&self, pid: ProcessId, name: &str, protocol: Protocol) -> Result<Receiver<'_>> {
        let view = self.view(pid)?;
        let id = view.open_receive(name, protocol)?;
        Ok(Receiver {
            view,
            pid,
            id,
            protocol,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpfConfig;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_index(i)
    }

    #[test]
    fn raii_send_recv() {
        let mpf = Mpf::init(MpfConfig::new(4, 4)).unwrap();
        let tx = mpf.sender(p(0), "chan").unwrap();
        let rx = mpf.receiver(p(1), "chan", Protocol::Fcfs).unwrap();
        tx.send(b"hi").unwrap();
        assert_eq!(rx.recv_vec().unwrap(), b"hi");
        let mut buf = [0u8; 8];
        assert_eq!(rx.try_recv(&mut buf).unwrap(), None);
    }

    #[test]
    fn drop_closes_connections() {
        let mpf = Mpf::init(MpfConfig::new(4, 4)).unwrap();
        {
            let _tx = mpf.sender(p(0), "temp").unwrap();
            assert_eq!(mpf.live_lnvcs(), 1);
        }
        assert_eq!(mpf.live_lnvcs(), 0, "drop closed the last connection");
    }

    #[test]
    fn explicit_close_reports() {
        let mpf = Mpf::init(MpfConfig::new(4, 4)).unwrap();
        let tx = mpf.sender(p(0), "c").unwrap();
        tx.close().unwrap();
        assert_eq!(mpf.live_lnvcs(), 0);
    }

    #[test]
    fn iter_drains_until_conversation_dies() {
        let mpf = Mpf::init(MpfConfig::new(4, 4)).unwrap();
        let rx = mpf.receiver(p(1), "feed", Protocol::Fcfs).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let tx = mpf.sender(p(0), "feed").unwrap();
                for i in 0..5u8 {
                    tx.send(&[i]).unwrap();
                }
                // tx drops: sender leaves.
            });
            let mut got = Vec::new();
            for (count, msg) in rx.iter().enumerate() {
                got.push(msg[0]);
                if count == 4 {
                    break; // we are the last receiver; iter would block
                }
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn protocol_accessor() {
        let mpf = Mpf::init(MpfConfig::new(4, 4)).unwrap();
        let rx = mpf.receiver(p(0), "x", Protocol::Broadcast).unwrap();
        assert_eq!(rx.protocol(), Protocol::Broadcast);
        assert_eq!(rx.pid(), p(0));
    }
}
