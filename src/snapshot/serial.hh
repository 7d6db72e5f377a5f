/**
 * @file
 * Bounds-checked binary serialization primitives for simulator
 * snapshots.
 *
 * Fixed-width little-endian encoding, independent of host struct
 * layout, so snapshot bytes are stable across compilers and build
 * flags. Every read is range-checked; malformed input raises
 * SnapshotError rather than reading past the buffer, and section tags
 * catch writer/reader drift with a message naming the section instead
 * of a silent misparse.
 */

#ifndef GPS_SNAPSHOT_SERIAL_HH
#define GPS_SNAPSHOT_SERIAL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gps::snapshot
{

/** Raised on any malformed, truncated, or mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Append-only little-endian encoder. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Start a named section; the reader must consume the same tag. */
    void section(const std::string& name) { str(name); }

    /** Overwrite the u32 written at byte @p at (a reserved field). */
    void
    patchU32(std::size_t at, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }

    /** Overwrite the u64 written at byte @p at (a reserved field). */
    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }

    const std::string& bytes() const { return buf_; }

    /** Move the encoded bytes out, leaving this serializer empty. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Range-checked decoder over an immutable byte buffer, which must
 * outlive it; offsets in its errors count from the buffer's start.
 */
class Deserializer
{
  public:
    explicit Deserializer(std::string_view bytes)
        : buf_(bytes)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw SnapshotError("corrupt snapshot: bool byte " +
                                std::to_string(v));
        return v == 1;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        need(len);
        std::string s(buf_.substr(pos_, len));
        pos_ += len;
        return s;
    }

    /** Consume a section tag, failing loudly on drift. */
    void
    section(const std::string& expected)
    {
        const std::string got = str();
        if (got != expected)
            throw SnapshotError("corrupt snapshot: expected section '" +
                                expected + "', found '" + got + "'");
    }

    /**
     * Read an element count bounded by @p max and by the bytes left:
     * every element encodes to at least one byte, so a corrupt length
     * cannot drive an allocation larger than the snapshot itself.
     */
    std::uint64_t
    count(std::uint64_t max)
    {
        const std::uint64_t n = u64();
        if (n > max)
            throw SnapshotError(
                "corrupt snapshot: element count " + std::to_string(n) +
                " exceeds limit " + std::to_string(max));
        if (n > buf_.size() - pos_)
            throw SnapshotError(
                "corrupt snapshot: element count " + std::to_string(n) +
                " exceeds the " + std::to_string(buf_.size() - pos_) +
                " bytes left");
        return n;
    }

    bool atEnd() const { return pos_ == buf_.size(); }
    std::size_t pos() const { return pos_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > buf_.size() - pos_)
            throw SnapshotError(
                "truncated snapshot: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ", have " +
                std::to_string(buf_.size() - pos_));
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

} // namespace gps::snapshot

#endif // GPS_SNAPSHOT_SERIAL_HH
