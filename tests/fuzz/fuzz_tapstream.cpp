// libFuzzer harness for the tapstream wire protocol: every decoder of the
// live-ingest framing layer (hello, hello-ack, record header, progress,
// fin, fin-ack) against arbitrary bytes, plus a stream walk that consumes
// the input the way the server's framing loop does — hello first, then
// records, progress promises and fins until the bytes stop decoding. Decoders must reject
// garbage with an error, never crash, and never read past the buffer.
#include <cstdint>
#include <span>

#include "netd/wire.hpp"
#include "util/bytes.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace uncharted;
  using namespace uncharted::netd;
  std::span<const std::uint8_t> input(data, size);

  {
    ByteReader r(input);
    (void)wire::decode_hello(r);
  }
  {
    ByteReader r(input);
    (void)wire::decode_hello_ack(r);
  }
  {
    ByteReader r(input);
    (void)wire::decode_record_header(r);
  }
  {
    ByteReader r(input);
    (void)wire::decode_progress(r);
  }
  {
    ByteReader r(input);
    (void)wire::decode_fin(r);
  }
  {
    ByteReader r(input);
    (void)wire::decode_fin_ack(r);
  }

  // The server's shape: a hello, then a marker-framed message stream.
  ByteReader r(input);
  auto hello = wire::decode_hello(r);
  if (!hello.ok()) return 0;
  while (r.can_read(1)) {
    const std::size_t before = r.position();
    if (auto rec = wire::decode_record_header(r); rec.ok()) {
      if (!r.skip(rec->cap_len).ok()) break;
      continue;
    }
    r.seek(before);
    if (auto promise = wire::decode_progress(r); promise.ok()) continue;
    r.seek(before);
    if (auto fin = wire::decode_fin(r); fin.ok()) continue;
    r.seek(before);
    if (auto fin_ack = wire::decode_fin_ack(r); fin_ack.ok()) continue;
    break;  // not a decodable message: the server would hang up here
  }
  return 0;
}
