#include "nn/serialize.hh"

#include <fstream>
#include <map>

namespace ccsa
{
namespace nn
{

namespace
{

const char kMagic[4] = {'C', 'C', 'S', 'A'};
const std::uint32_t kVersion = 2;

template <typename T>
void
writeRaw(std::ofstream& f, const T& v)
{
    f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void
readRaw(std::ifstream& f, T& v)
{
    f.read(reinterpret_cast<char*>(&v), sizeof(T));
}

/** Bytes between the read position and the end of the file (0 once
 * the stream has failed). */
std::uint64_t
bytesLeft(std::ifstream& f)
{
    std::streamoff here = f.tellg();
    f.seekg(0, std::ios::end);
    std::streamoff end = f.tellg();
    f.seekg(here);
    return here < 0 || end < here ? 0
                                  : static_cast<std::uint64_t>(end - here);
}

void
writeString(std::ofstream& f, const std::string& s)
{
    writeRaw(f, static_cast<std::uint32_t>(s.size()));
    f.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::ifstream& f, const std::string& path)
{
    // A length beyond the bytes left is file corruption, and
    // honouring it would allocate up to 4 GB (std::bad_alloc escapes
    // the FatalError-only recovery in the Status-returning loaders).
    std::uint32_t len = 0;
    readRaw(f, len);
    if (!f || len > bytesLeft(f))
        fatal("loadParameters: corrupt string length in ", path);
    std::string s(len, '\0');
    f.read(s.data(), len);
    if (!f)
        fatal("loadParameters: truncated file ", path);
    return s;
}

void
writeManifest(std::ofstream& f, const CheckpointManifest& m)
{
    writeString(f, m.modelName);
    writeRaw(f, m.version);
    writeRaw(f, m.encoderKind);
    writeRaw(f, m.embedDim);
    writeRaw(f, m.hiddenDim);
    writeRaw(f, m.layers);
    writeRaw(f, m.arch);
}

CheckpointManifest
readManifest(std::ifstream& f, const std::string& path)
{
    CheckpointManifest m;
    m.modelName = readString(f, path);
    readRaw(f, m.version);
    readRaw(f, m.encoderKind);
    readRaw(f, m.embedDim);
    readRaw(f, m.hiddenDim);
    readRaw(f, m.layers);
    readRaw(f, m.arch);
    if (!f)
        fatal("loadParameters: truncated manifest in ", path);
    return m;
}

void
writeParams(std::ofstream& f, const std::vector<Parameter*>& params)
{
    writeRaw(f, static_cast<std::uint32_t>(params.size()));
    for (const Parameter* p : params) {
        const Tensor& t = p->var.value();
        writeRaw(f, static_cast<std::uint32_t>(p->name.size()));
        f.write(p->name.data(),
                static_cast<std::streamsize>(p->name.size()));
        writeRaw(f, static_cast<std::int32_t>(t.rows()));
        writeRaw(f, static_cast<std::int32_t>(t.cols()));
        f.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.size() * sizeof(float)));
    }
}

/** Read the magic + version header; fatal on a foreign file. */
void
readHeader(std::ifstream& f, const std::string& path)
{
    char magic[4];
    f.read(magic, 4);
    if (!f || std::string(magic, 4) != std::string(kMagic, 4))
        fatal("loadParameters: bad magic in ", path);
    std::uint32_t version = 0;
    readRaw(f, version);
    if (version != kVersion)
        fatal("loadParameters: unsupported version ", version, " in ",
              path);
}

} // namespace

void
saveParameters(const std::string& path,
               const std::vector<Parameter*>& params)
{
    saveParameters(path, params, CheckpointManifest());
}

void
saveParameters(const std::string& path,
               const std::vector<Parameter*>& params,
               const CheckpointManifest& manifest)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("saveParameters: cannot open ", path);
    f.write(kMagic, 4);
    writeRaw(f, kVersion);
    writeManifest(f, manifest);
    writeParams(f, params);
    if (!f)
        fatal("saveParameters: write error on ", path);
}

void
loadParameters(const std::string& path,
               const std::vector<Parameter*>& params)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fatal("loadParameters: cannot open ", path);
    readHeader(f, path);
    readManifest(f, path); // weights load ignores the manifest
    std::uint32_t count = 0;
    readRaw(f, count);

    struct Entry
    {
        int rows;
        int cols;
        std::vector<float> data;
    };
    std::map<std::string, Entry> entries;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name = readString(f, path);
        std::int32_t rows = 0, cols = 0;
        readRaw(f, rows);
        readRaw(f, cols);
        if (!f || rows < 0 || cols < 0)
            fatal("loadParameters: corrupt shape for '", name,
                  "' in ", path);
        // Same guard as readString: the payload is sized from the
        // shape only once the file is known to hold it.
        std::uint64_t payload = static_cast<std::uint64_t>(rows) *
            static_cast<std::uint64_t>(cols) * sizeof(float);
        if (payload > bytesLeft(f))
            fatal("loadParameters: ", rows, "x", cols, " payload of '",
                  name, "' exceeds the bytes left in ", path);
        Entry e;
        e.rows = rows;
        e.cols = cols;
        e.data.resize(static_cast<std::size_t>(rows) * cols);
        f.read(reinterpret_cast<char*>(e.data.data()),
               static_cast<std::streamsize>(
                   e.data.size() * sizeof(float)));
        if (!f)
            fatal("loadParameters: truncated file ", path);
        entries.emplace(std::move(name), std::move(e));
    }

    // Validate everything before touching any weight, so a bad file
    // (missing parameter, shape mismatch) leaves the model exactly
    // as it was — load is transactional.
    for (Parameter* p : params) {
        auto it = entries.find(p->name);
        if (it == entries.end())
            fatal("loadParameters: missing parameter '", p->name, "'");
        const Entry& e = it->second;
        const Tensor& t = p->var.value();
        if (e.rows != t.rows() || e.cols != t.cols())
            fatal("loadParameters: shape mismatch for '", p->name,
                  "': file ", e.rows, "x", e.cols, " vs model ",
                  t.rows(), "x", t.cols());
    }
    for (Parameter* p : params) {
        const Entry& e = entries.at(p->name);
        p->var.mutableValue() =
            Tensor::fromVector(e.data, e.rows, e.cols);
    }
}

CheckpointManifest
readCheckpointManifest(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fatal("readCheckpointManifest: cannot open ", path);
    readHeader(f, path);
    return readManifest(f, path);
}

} // namespace nn
} // namespace ccsa
