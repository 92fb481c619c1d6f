#include "serve/latent_codec.hh"

#include <cmath>
#include <cstring>

#include "serve/latent_f16_dispatch.hh"

namespace ccsa
{

const char*
latentPrecisionName(LatentPrecision p)
{
    switch (p) {
    case LatentPrecision::kFp32:
        return "fp32";
    case LatentPrecision::kFp16:
        return "fp16";
    case LatentPrecision::kInt8:
        return "int8";
    }
    return "fp32";
}

bool
parseLatentPrecision(const std::string& name, LatentPrecision* out)
{
    if (name == "fp32") {
        *out = LatentPrecision::kFp32;
        return true;
    }
    if (name == "fp16") {
        *out = LatentPrecision::kFp16;
        return true;
    }
    if (name == "int8") {
        *out = LatentPrecision::kInt8;
        return true;
    }
    return false;
}

std::uint16_t
f32ToF16(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    const std::uint32_t absBits = bits & 0x7FFFFFFFu;

    if (absBits >= 0x7F800000u) {
        // Inf / NaN: keep the class, force a quiet-NaN mantissa bit
        // so a signalling payload can't be silently dropped to inf.
        if (absBits > 0x7F800000u)
            return static_cast<std::uint16_t>(sign | 0x7E00u);
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    }
    if (absBits >= 0x47800000u) // >= 65536: overflows half
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    if (absBits >= 0x38800000u) {
        // Normal half: rebias exponent (127 -> 15), keep 10 mantissa
        // bits with round-to-nearest-even on the 13 dropped bits.
        std::uint32_t mant = absBits + 0xC8000000u; // rebias in place
        const std::uint32_t round = (mant >> 13) & 1u ?
            0x0FFFu + 1u : 0x0FFFu;
        return static_cast<std::uint16_t>(
            sign | ((mant + round) >> 13));
    }
    if (absBits >= 0x33000000u) {
        // Subnormal half: mant16 = m24 >> (126 - e), i.e. the 24-bit
        // significand (implicit 1 restored) shifted so the result is
        // in half-subnormal units of 2^-24. dropped ranges 14 (just
        // below the min normal) to 24 (the underflow boundary), so
        // the shifts below stay well-defined on u32.
        const std::uint32_t dropped = 126u - (absBits >> 23);
        std::uint32_t mant = (absBits & 0x007FFFFFu) | 0x00800000u;
        // round-to-nearest-even at the dropped-bit boundary; a carry
        // into bit 10 lands on the min normal half, which is exactly
        // the right encoding (exponent field becomes 1).
        const std::uint32_t halfUlp = 1u << (dropped - 1);
        const std::uint32_t lsb = 1u << dropped;
        mant += (mant & lsb) ? halfUlp : halfUlp - 1u;
        return static_cast<std::uint16_t>(sign | (mant >> dropped));
    }
    return static_cast<std::uint16_t>(sign); // underflow to +/-0
}

float
f16ToF32(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u)
        << 16;
    const std::uint32_t exp = (h >> 10) & 0x1Fu;
    const std::uint32_t mant = h & 0x3FFu;
    std::uint32_t bits;
    if (exp == 0x1Fu) { // inf / NaN
        bits = sign | 0x7F800000u | (mant << 13);
    } else if (exp == 0) {
        if (mant == 0) {
            bits = sign; // signed zero
        } else {
            // Subnormal half -> normal float: renormalise.
            std::uint32_t m = mant;
            std::uint32_t e = 127u - 15u + 1u;
            while ((m & 0x400u) == 0) {
                m <<= 1;
                --e;
            }
            bits = sign | (e << 23) | ((m & 0x3FFu) << 13);
        }
    } else {
        bits = sign | ((exp + 127u - 15u) << 23) | (mant << 13);
    }
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

StoredLatent
encodeLatent(const Tensor& t, LatentPrecision precision)
{
    StoredLatent s;
    s.precision = precision;
    s.rows = t.rows();
    s.cols = t.cols();
    const std::size_t count = t.size();

    switch (precision) {
    case LatentPrecision::kFp32: {
        s.payload.resize(count * sizeof(float));
        if (count > 0)
            std::memcpy(s.payload.data(), t.data(),
                        s.payload.size());
        break;
    }
    case LatentPrecision::kFp16: {
        s.payload.resize(count * sizeof(std::uint16_t));
        auto* halves =
            reinterpret_cast<std::uint16_t*>(s.payload.data());
        kernels::activeF16Kernels().encodeRows(t.data(), halves,
                                               count);
        break;
    }
    case LatentPrecision::kInt8: {
        const std::size_t rows = static_cast<std::size_t>(s.rows);
        const std::size_t cols = static_cast<std::size_t>(s.cols);
        s.payload.resize(rows * sizeof(float) + count);
        auto* scales = reinterpret_cast<float*>(s.payload.data());
        auto* codes = reinterpret_cast<std::int8_t*>(
            s.payload.data() + rows * sizeof(float));
        const float* src = t.data();
        for (std::size_t r = 0; r < rows; ++r) {
            const float* row = src + r * cols;
            float maxAbs = 0.0f;
            for (std::size_t c = 0; c < cols; ++c)
                maxAbs = std::max(maxAbs, std::fabs(row[c]));
            // scale maps [-maxAbs, maxAbs] onto [-127, 127]; an
            // all-zero (or empty) row stores scale 0 and decodes to
            // exact zeros.
            const float scale =
                maxAbs > 0.0f ? maxAbs / 127.0f : 0.0f;
            const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
            scales[r] = scale;
            for (std::size_t c = 0; c < cols; ++c) {
                float q = std::nearbyint(row[c] * inv);
                q = std::min(127.0f, std::max(-127.0f, q));
                codes[r * cols + c] = static_cast<std::int8_t>(q);
            }
        }
        break;
    }
    }
    return s;
}

Tensor
decodeLatent(const StoredLatent& s)
{
    Tensor t(s.rows, s.cols);
    const std::size_t count = t.size();
    switch (s.precision) {
    case LatentPrecision::kFp32: {
        if (count > 0)
            std::memcpy(t.data(), s.payload.data(),
                        count * sizeof(float));
        break;
    }
    case LatentPrecision::kFp16: {
        const auto* halves =
            reinterpret_cast<const std::uint16_t*>(s.payload.data());
        kernels::activeF16Kernels().decodeRows(halves, t.data(),
                                               count);
        break;
    }
    case LatentPrecision::kInt8: {
        const std::size_t rows = static_cast<std::size_t>(s.rows);
        const std::size_t cols = static_cast<std::size_t>(s.cols);
        const auto* scales =
            reinterpret_cast<const float*>(s.payload.data());
        const auto* codes = reinterpret_cast<const std::int8_t*>(
            s.payload.data() + rows * sizeof(float));
        // One data() call: made per element, its borrowed/owned
        // branch once cost int8 hits half their rate.
        float* dst = t.data();
        for (std::size_t r = 0; r < rows; ++r) {
            const float scale = scales[r];
            for (std::size_t c = 0; c < cols; ++c)
                dst[r * cols + c] =
                    static_cast<float>(codes[r * cols + c]) * scale;
        }
        break;
    }
    }
    return t;
}

} // namespace ccsa
