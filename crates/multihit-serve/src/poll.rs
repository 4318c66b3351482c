//! Readiness poller: the event-loop front end's one OS dependency.
//!
//! The workspace is dependency-free by design, so instead of `mio` this is
//! a shims-style wrapper over raw `epoll` syscalls (declared `extern "C"`
//! against the libc the standard library already links). Level-triggered
//! deliberately: a connection whose buffered bytes were only partially
//! consumed stays ready, so the reactor never needs the careful
//! drain-to-EAGAIN discipline edge-triggered epoll demands.
//!
//! Two types:
//!
//! * [`Poller`] — register/modify/deregister interest on raw fds, and
//!   [`Poller::wait`] for readiness events carrying a caller-chosen `u64`
//!   token.
//! * [`Waker`] — an `eventfd` pre-registered under [`WAKE_TOKEN`]; any
//!   thread (a scoring worker finishing a response, [`Poller`]'s owner
//!   being told to stop) can [`Waker::wake`] the reactor out of `wait`.
//!
//! On non-Linux unix the same API degrades to a short-sleep loop that
//! reports every registered fd ready each tick — spuriously ready is safe
//! (all I/O is non-blocking and EAGAIN-tolerant), just slower. Linux is
//! the platform the bench numbers are measured on.

/// Token the reactor's [`Waker`] fires under; never assign it to a socket.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Read-readiness (or a pending accept on a listener).
    pub readable: bool,
    /// Write-readiness.
    pub writable: bool,
    /// Peer hangup or error: the connection should be torn down after a
    /// final drain attempt.
    pub hangup: bool,
}

/// Interest set for a registered fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake on read-readiness.
    pub readable: bool,
    /// Wake on write-readiness.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — armed while a write buffer is backed up.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, PollEvent, WAKE_TOKEN};
    use std::io;
    use std::os::unix::io::RawFd;

    // x86_64 Linux packs epoll_event to 12 bytes; repr(packed) matches the
    // kernel ABI on every architecture Rust targets here.
    #[repr(C, packed)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const EINTR: i32 = 4;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// Level-triggered epoll instance plus its wake eventfd.
    pub struct Poller {
        epfd: RawFd,
        wake_fd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: takes no pointers; a negative return is turned into an
            // error by `cvt`, so `epfd` is an fd this call created and owns.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: takes no pointers; as above, `wake_fd` is owned on Ok.
            let wake_fd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: `epfd` was created above, no `Poller` holds it
                    // yet, and it is closed exactly once on this path.
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wake_fd };
            poller.ctl(EPOLL_CTL_ADD, wake_fd, EPOLLIN, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `self.epfd` is open for as long as `self` lives, and
            // `ev` is a live `EpollEvent` of the kernel's layout that the
            // call only reads for its duration. A bad `fd` is an `EBADF`
            // return, not undefined behaviour.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            const CAP: usize = 512;
            // SAFETY: `EpollEvent` is two plain integers; all-zero bytes are
            // a valid value of it.
            let mut events: [EpollEvent; CAP] = unsafe { std::mem::zeroed() };
            let n = loop {
                // SAFETY: `events` has room for exactly the `CAP` entries the
                // kernel is told it may write, and `self.epfd` is open.
                let r =
                    unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), CAP as i32, timeout_ms) };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.raw_os_error() == Some(EINTR) {
                    continue;
                }
                return Err(err);
            };
            for ev in &events[..n] {
                let bits = ev.events;
                let token = ev.data;
                if token == WAKE_TOKEN {
                    // Drain the eventfd counter so level-triggering quiesces.
                    let mut buf = [0u8; 8];
                    // SAFETY: `buf` is 8 writable bytes, the count passed;
                    // `self.wake_fd` is the eventfd `self` owns.
                    unsafe { read(self.wake_fd, buf.as_mut_ptr(), 8) };
                }
                out.push(PollEvent {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }

        pub fn waker(&self) -> Waker {
            Waker { fd: self.wake_fd }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both fds were created in `new`, are owned by `self`
            // alone (`Waker` copies the number, not the ownership), and
            // `drop` runs once, so each is closed exactly once.
            unsafe {
                close(self.wake_fd);
                close(self.epfd);
            }
        }
    }

    /// Cross-thread wakeup handle; cheap to clone, outlives nothing (the
    /// owning [`Poller`] closes the fd, after which wakes are no-ops that
    /// fail silently).
    #[derive(Clone, Copy)]
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: `one` is 8 readable bytes, the count passed. Memory
            // safety does not depend on `self.fd` still being open: once the
            // `Poller` has closed it the call fails with `EBADF`.
            unsafe { write(self.fd, one.as_ptr(), 8) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Interest, PollEvent, WAKE_TOKEN};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    /// Degraded tick-based poller: every registered fd is reported ready on
    /// each tick. Spurious readiness is safe under non-blocking I/O.
    pub struct Poller {
        fds: Mutex<Vec<(RawFd, u64)>>,
        woken: Arc<AtomicBool>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Mutex::new(Vec::new()),
                woken: Arc::new(AtomicBool::new(false)),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, _interest: Interest) -> io::Result<()> {
            self.fds.lock().expect("poller poisoned").push((fd, token));
            Ok(())
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Ok(())
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.fds
                .lock()
                .expect("poller poisoned")
                .retain(|&(f, _)| f != fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            let tick = if timeout_ms < 0 {
                5
            } else {
                timeout_ms.min(5).max(1)
            };
            std::thread::sleep(std::time::Duration::from_millis(tick as u64));
            if self.woken.swap(false, Ordering::AcqRel) {
                out.push(PollEvent {
                    token: WAKE_TOKEN,
                    readable: true,
                    writable: false,
                    hangup: false,
                });
            }
            for &(_, token) in self.fds.lock().expect("poller poisoned").iter() {
                out.push(PollEvent {
                    token,
                    readable: true,
                    writable: true,
                    hangup: false,
                });
            }
            Ok(())
        }

        pub fn waker(&self) -> Waker {
            Waker {
                woken: Arc::clone(&self.woken),
            }
        }
    }

    #[derive(Clone)]
    pub struct Waker {
        woken: Arc<AtomicBool>,
    }

    impl Waker {
        pub fn wake(&self) {
            self.woken.store(true, Ordering::Release);
        }
    }
}

pub use sys::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn reports_readable_after_peer_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        // Bounded retries: readiness can lag the write by a scheduler tick.
        let mut seen = false;
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                seen = true;
                break;
            }
        }
        assert!(seen, "peer write never became readable");
        let mut buf = [0u8; 8];
        let n = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn waker_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        // A 5-second timeout that the waker must cut short.
        let started = std::time::Instant::now();
        poller.wait(&mut events, 5_000).unwrap();
        // Degraded (non-linux) pollers tick early; on Linux the wake token
        // must be what ended the wait.
        #[cfg(target_os = "linux")]
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        assert!(started.elapsed() < std::time::Duration::from_secs(4));
        t.join().unwrap();
    }

    #[test]
    fn deregistered_fd_stops_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        poller.deregister(server_side.as_raw_fd()).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 50).unwrap();
        assert!(events.iter().all(|e| e.token != 9));
    }
}
