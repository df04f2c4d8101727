// Replays fuzz corpora without libFuzzer: feeds every regular file of each
// directory argument, in name order, to LLVMFuzzerTestOneInput once. Linked
// with each harness (tests/CMakeLists.txt), it lets ctest check the
// committed seeds under any compiler and sanitizer configuration; a
// harness traps on a broken contract, which fails the test.
//
// Run: ./build/tests/fuzz_snapshot_replay tests/fuzz/corpus/snapshot

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " CORPUS_DIR...\n";
    return 2;
  }
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(argv[i])) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& path : files) {
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      // An exact-size heap copy, as libFuzzer passes it, so a sanitizer
      // sees a read one byte past the input.
      auto data = std::make_unique<uint8_t[]>(bytes.size());
      std::memcpy(data.get(), bytes.data(), bytes.size());
      std::cout << path.filename().string() << ": " << bytes.size()
                << " bytes\n";
      LLVMFuzzerTestOneInput(data.get(), bytes.size());
      ++replayed;
    }
  }
  std::cout << replayed << " inputs replayed\n";
  return replayed == 0 ? 1 : 0;
}
