//! Wire-framing behaviour at the 16 MiB frame cap: the boundary payload is
//! legal, one byte more is rejected before any allocation or partial
//! write, every frame leaves in exactly one write, a truncated payload is a
//! typed EOF read without a buffer sized by its length prefix, and a
//! poisoned length prefix surfaces to [`WireClient`] users as a typed
//! [`ServeError`], not a hang or an abort.

use pnc_serve::wire::{read_frame, write_frame, WireClient, MAX_FRAME_BYTES};
use pnc_serve::ServeError;
use std::io::{Read, Write};
use std::net::TcpListener;

/// A `Write` that counts the `write` calls it receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `Read` over fixed bytes that records the largest buffer it is handed.
struct ProbingReader {
    bytes: std::io::Cursor<Vec<u8>>,
    largest_buf: usize,
}

impl Read for ProbingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest_buf = self.largest_buf.max(buf.len());
        self.bytes.read(buf)
    }
}

#[test]
fn frame_exactly_at_the_cap_round_trips() {
    let payload = vec![0xA5u8; MAX_FRAME_BYTES];
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).expect("cap-sized payload is legal");
    assert_eq!(buf.len(), 4 + MAX_FRAME_BYTES);
    let mut cursor = std::io::Cursor::new(buf);
    let back = read_frame(&mut cursor).expect("cap-sized frame reads back");
    assert_eq!(back.len(), MAX_FRAME_BYTES);
    assert!(back == payload, "payload bytes must survive the round trip");
}

#[test]
fn write_rejects_cap_plus_one_before_touching_the_stream() {
    let payload = vec![0u8; MAX_FRAME_BYTES + 1];
    let mut buf = Vec::new();
    let err = write_frame(&mut buf, &payload).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        buf.is_empty(),
        "an oversized frame must not leave a partial prefix on the stream"
    );
}

#[test]
fn every_frame_leaves_in_exactly_one_write() {
    // A frame split over two writes lets Nagle hold the payload until the
    // peer acknowledges the prefix: a delayed-ACK stall per frame.
    for len in [0, 37, MAX_FRAME_BYTES] {
        let payload = vec![0x5Au8; len];
        let mut sink = CountingWriter::default();
        write_frame(&mut sink, &payload).expect("legal payload");
        assert_eq!(
            sink.writes, 1,
            "a {len}-byte payload took {} writes",
            sink.writes
        );
        assert_eq!(sink.bytes.len(), 4 + len);
    }
    let mut sink = CountingWriter::default();
    write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]).expect_err("must reject");
    assert_eq!(sink.writes, 0, "a rejected frame must not reach the stream");
}

#[test]
fn read_rejects_cap_plus_one_prefix_before_allocating() {
    let mut raw = Vec::new();
    raw.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
    // Deliberately no payload bytes: a pre-allocation reject never reads
    // past the prefix, so their absence must not matter.
    let mut cursor = std::io::Cursor::new(raw);
    let err = read_frame(&mut cursor).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        cursor.position(),
        4,
        "only the 4-byte prefix may be consumed on reject"
    );
}

#[test]
fn read_accepts_a_prefix_exactly_at_the_cap() {
    let mut raw = Vec::new();
    raw.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
    raw.extend_from_slice(&vec![7u8; MAX_FRAME_BYTES]);
    let mut cursor = std::io::Cursor::new(raw);
    let frame = read_frame(&mut cursor).expect("cap-sized prefix is legal");
    assert_eq!(frame.len(), MAX_FRAME_BYTES);
}

#[test]
fn truncated_cap_sized_frame_is_a_typed_eof_read_without_a_cap_sized_buffer() {
    // A hostile peer claims the largest legal frame, sends 10 bytes and
    // hangs up. The read fails with UnexpectedEof, and the payload buffer
    // never grew to the claimed length before bytes arrived.
    let mut raw = Vec::new();
    raw.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
    raw.extend_from_slice(&[9u8; 10]);
    let mut reader = ProbingReader {
        bytes: std::io::Cursor::new(raw),
        largest_buf: 0,
    };
    let err = read_frame(&mut reader).expect_err("a short payload must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        reader.largest_buf <= 64 * 1024,
        "read_frame offered a {}-byte buffer for a 10-byte payload",
        reader.largest_buf
    );
}

#[test]
fn poisoned_length_prefix_surfaces_as_a_typed_client_error() {
    // A "server" that answers any request with a corrupt (oversized)
    // length prefix. The client must fail its read with a typed
    // ServeError::Io carrying InvalidData — before allocating the
    // advertised 4 GiB.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Drain the request frame, then poison the response.
        let _ = read_frame(&mut stream);
        stream
            .write_all(&u32::MAX.to_be_bytes())
            .expect("write prefix");
        let _ = stream.flush();
    });
    let mut client = WireClient::connect(addr).expect("connect");
    let err = client
        .classify("iris", &[0.1, 0.2])
        .expect_err("corrupt response must be an error");
    match err {
        ServeError::Io(io) => assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{io}"),
        other => panic!("expected ServeError::Io, got {other:?}"),
    }
    server.join().expect("server thread");
}
