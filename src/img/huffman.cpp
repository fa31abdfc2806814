#include "img/huffman.h"

#include <algorithm>
#include <array>
#include <queue>

#include "support/error.h"

namespace cellport::img {

namespace {

constexpr int kMaxCodeLen = 32;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw cellport::IoError("truncated Huffman stream");
    }
    std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 56) throw cellport::IoError("overlong varint");
  }
}

/// Computes code lengths from byte frequencies (plain Huffman tree; the
/// canonical code assignment only needs the lengths).
std::vector<int> code_lengths(const std::vector<std::uint64_t>& freq) {
  struct Node {
    std::uint64_t weight;
    int index;  // < 256: leaf symbol; otherwise internal
    int left = -1;
    int right = -1;
  };
  std::vector<Node> nodes;
  auto cmp = [&](int a, int b) {
    if (nodes[static_cast<std::size_t>(a)].weight !=
        nodes[static_cast<std::size_t>(b)].weight) {
      return nodes[static_cast<std::size_t>(a)].weight >
             nodes[static_cast<std::size_t>(b)].weight;
    }
    return a > b;  // deterministic tie-break
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] > 0) {
      nodes.push_back(Node{freq[static_cast<std::size_t>(s)], s});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
  }
  std::vector<int> lengths(256, 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].index)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    int a = heap.top();
    heap.pop();
    int b = heap.top();
    heap.pop();
    Node parent{nodes[static_cast<std::size_t>(a)].weight +
                    nodes[static_cast<std::size_t>(b)].weight,
                256, a, b};
    nodes.push_back(parent);
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first walk assigns lengths.
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack = {{heap.top(), 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.left < 0) {
      lengths[static_cast<std::size_t>(n.index)] =
          std::max(1, std::min(f.depth, kMaxCodeLen));
    } else {
      stack.push_back({n.left, f.depth + 1});
      stack.push_back({n.right, f.depth + 1});
    }
  }
  return lengths;
}

/// Assigns canonical codes (sorted by (length, symbol)).
void canonical_codes(const std::vector<int>& lengths,
                     std::vector<std::uint32_t>& codes) {
  codes.assign(256, 0);
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    int la = lengths[static_cast<std::size_t>(a)];
    int lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : order) {
    int len = lengths[static_cast<std::size_t>(s)];
    // A 64-bit shift: the first code of a malformed all-32-bit table
    // shifts by 32.
    code = static_cast<std::uint32_t>(std::uint64_t{code}
                                      << (len - prev_len));
    codes[static_cast<std::size_t>(s)] = code;
    ++code;
    prev_len = len;
  }
}

/// Canonical decode as the bit walk reads it: the codes of length len
/// are first_code[len] .. first_code[len] + count[len] - 1, naming
/// symbols[first_index[len]] onward. A code decodes at the first length
/// that holds it, which also fixes the result of a malformed (non-Kraft)
/// length table.
struct CanonicalDecoder {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::array<std::uint32_t, kMaxCodeLen + 1> first_code{};
  std::array<int, kMaxCodeLen + 1> first_index{};
  std::array<std::uint32_t, kMaxCodeLen + 1> count{};
  std::array<std::uint8_t, 256> symbols{};

  explicit CanonicalDecoder(const std::vector<int>& lengths) {
    std::vector<std::uint32_t> codes;
    canonical_codes(lengths, codes);
    // Symbols ordered by (length, symbol): counting placement.
    for (int len : lengths) ++count[static_cast<std::size_t>(len)];
    int idx = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      first_index[static_cast<std::size_t>(len)] = idx;
      idx += static_cast<int>(count[static_cast<std::size_t>(len)]);
    }
    std::array<int, kMaxCodeLen + 1> next = first_index;
    first_code.fill(kNone);
    for (int s = 0; s < 256; ++s) {
      const auto len = static_cast<std::size_t>(
          lengths[static_cast<std::size_t>(s)]);
      if (len == 0) continue;
      if (next[len] == first_index[len]) {
        first_code[len] = codes[static_cast<std::size_t>(s)];
      }
      symbols[static_cast<std::size_t>(next[len]++)] =
          static_cast<std::uint8_t>(s);
    }
  }

  /// True (and sets sym) when `code` of `len` bits names a symbol.
  bool match(std::uint32_t code, int len, std::uint8_t& sym) const {
    const auto l = static_cast<std::size_t>(len);
    const std::uint32_t fc = first_code[l];
    if (fc == kNone || code < fc || code - fc >= count[l]) return false;
    sym = symbols[static_cast<std::size_t>(first_index[l]) + (code - fc)];
    return true;
  }
};

/// Prefix table over the next kTableBits bits (2^11 two-byte entries,
/// 4 KB): entry = len << 8 | symbol for the shortest code that prefixes
/// them, 0 when every code that does is longer than the table.
constexpr int kTableBits = 11;
using PrefixTable = std::array<std::uint16_t, std::size_t{1} << kTableBits>;

PrefixTable prefix_table(const CanonicalDecoder& dec) {
  PrefixTable table{};
  for (int len = 1; len <= kTableBits; ++len) {
    const auto l = static_cast<std::size_t>(len);
    const std::uint32_t fc = dec.first_code[l];
    if (fc == CanonicalDecoder::kNone) continue;
    const std::uint64_t end =
        std::min(std::uint64_t{fc} + dec.count[l], std::uint64_t{1} << len);
    const int shift = kTableBits - len;
    for (std::uint64_t c = fc; c < end; ++c) {
      const auto entry = static_cast<std::uint16_t>(
          len << 8 | dec.symbols[static_cast<std::size_t>(
                         dec.first_index[l]) + (c - fc)]);
      for (std::uint64_t v = c << shift; v < (c + 1) << shift; ++v) {
        if (table[v] == 0) table[v] = entry;  // shorter codes win
      }
    }
  }
  return table;
}

/// MSB-first reader over a 64-bit buffer. The top `have` bits of `buf`
/// are the next bits of the stream; below them sit later stream bits or
/// zeros, and only zeros once every byte is in.
struct BitReader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t next = 0;  // bytes moved into buf
  std::uint64_t buf = 0;
  int have = 0;

  /// Tops buf up to at least 56 bits, or up to the end of the stream.
  void refill() {
    if (next + 8 <= n) {
      std::uint64_t w = 0;
      for (std::size_t i = 0; i < 8; ++i) w = (w << 8) | p[next + i];
      buf |= w >> have;
      const int bytes = (63 - have) >> 3;
      next += static_cast<std::size_t>(bytes);
      have += bytes * 8;
    } else {
      while (have <= 56 && next < n) {
        buf |= std::uint64_t{p[next++]} << (56 - have);
        have += 8;
      }
    }
  }

  std::uint64_t consumed_bits() const {
    return std::uint64_t{next} * 8 - static_cast<std::uint64_t>(have);
  }
};

}  // namespace

std::vector<std::uint8_t> huffman_encode(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  put_varint(out, payload.size());
  if (payload.empty()) return out;

  std::vector<std::uint64_t> freq(256, 0);
  for (std::uint8_t b : payload) ++freq[b];
  std::vector<int> lengths = code_lengths(freq);
  // Oversized codes (possible only for pathological skew with our naive
  // tree) would corrupt the bit writer; rebalancing is overkill here, so
  // fall back to flattening the distribution.
  if (*std::max_element(lengths.begin(), lengths.end()) >= kMaxCodeLen) {
    lengths.assign(256, 8);
  }
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);

  for (int s = 0; s < 256; ++s) {
    out.push_back(static_cast<std::uint8_t>(lengths[
        static_cast<std::size_t>(s)]));
  }

  // Bit writer, MSB first.
  std::uint64_t bitbuf = 0;
  int bitcount = 0;
  for (std::uint8_t b : payload) {
    int len = lengths[b];
    bitbuf = (bitbuf << len) | codes[b];
    bitcount += len;
    while (bitcount >= 8) {
      out.push_back(
          static_cast<std::uint8_t>(bitbuf >> (bitcount - 8)));
      bitcount -= 8;
    }
  }
  if (bitcount > 0) {
    out.push_back(static_cast<std::uint8_t>(bitbuf << (8 - bitcount)));
  }
  return out;
}

std::vector<std::uint8_t> huffman_decode(
    const std::vector<std::uint8_t>& stream, std::size_t& pos,
    sim::ScalarContext* ctx) {
  std::uint64_t count = get_varint(stream, pos);
  std::vector<std::uint8_t> out;
  if (count == 0) return out;
  // Every symbol takes at least one bit, so a larger count can only end
  // in truncation: reject it before sizing the output.
  if (count > (std::uint64_t{1} << 32) ||
      count > 8 * static_cast<std::uint64_t>(stream.size() - pos)) {
    throw cellport::IoError("implausible Huffman payload size");
  }

  if (pos + 256 > stream.size()) {
    throw cellport::IoError("truncated Huffman code table");
  }
  std::vector<int> lengths(256);
  for (int s = 0; s < 256; ++s) {
    lengths[static_cast<std::size_t>(s)] = stream[pos++];
    if (lengths[static_cast<std::size_t>(s)] > kMaxCodeLen) {
      throw cellport::IoError("invalid Huffman code length");
    }
  }
  const CanonicalDecoder dec(lengths);
  const PrefixTable table = prefix_table(dec);

  // The bit walk this replaces loads a byte when it needs its first
  // bit and charges each load on its own; the clock is a running double
  // sum, so the calls stay one by one and in order.
  BitReader in{stream.data() + pos, stream.size() - pos};
  auto load = [&](std::uint64_t bytes) {
    pos += bytes;
    if (ctx == nullptr) return;
    for (std::uint64_t i = 0; i < bytes; ++i) {
      // Decode cost: a handful of shifts/compares per bit consumed.
      ctx->charge(sim::OpClass::kLoad, 1);
      ctx->charge(sim::OpClass::kIntAlu, 10);
      ctx->charge(sim::OpClass::kBranch, 3);
    }
  };

  out.resize(count);
  for (std::uint8_t& sym : out) {
    // After a refill, fewer than kMaxCodeLen + 1 bits means the stream
    // ends inside them; the zeros past its end decode like any bits, and
    // a code that reaches into them is truncation, as in the bit walk.
    if (in.have <= kMaxCodeLen) in.refill();
    std::uint32_t code =
        static_cast<std::uint32_t>(in.buf >> (64 - kTableBits));
    int len = table[code] >> 8;
    if (len != 0) {
      sym = static_cast<std::uint8_t>(table[code]);
    } else {
      // Longer than the table: continue bit by bit.
      for (len = kTableBits + 1;; ++len) {
        if (len > kMaxCodeLen) {
          if (len > in.have) break;  // truncated first
          load((in.consumed_bits() + static_cast<std::uint64_t>(len) + 7) /
               8);
          throw cellport::IoError("corrupt Huffman bitstream");
        }
        code = (code << 1) |
               static_cast<std::uint32_t>((in.buf >> (64 - len)) & 1);
        if (dec.match(code, len, sym)) break;
      }
    }
    if (len > in.have) {
      load(in.n);
      throw cellport::IoError("truncated Huffman bitstream");
    }
    in.buf <<= len;
    in.have -= len;
  }
  load((in.consumed_bits() + 7) / 8);
  return out;
}

}  // namespace cellport::img
