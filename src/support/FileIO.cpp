//===- support/FileIO.cpp - Whole-file reads and atomic replaces ----------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace vega;

StatusOr<std::string> vega::readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Status::unavailable("cannot open '" + Path +
                               "': " + std::strerror(errno));
  std::string Out;
  char Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Bad = std::ferror(F);
  std::fclose(F);
  if (Bad)
    return Status::unavailable("error reading '" + Path + "'");
  return Out;
}

Status vega::writeFile(const std::string &Path, const std::string &Data) {
  std::string Tmp = Path + "." + std::to_string(::getpid()) + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Status::unavailable("cannot write '" + Tmp +
                               "': " + std::strerror(errno));
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), F) == Data.size();
  Ok = (std::fclose(F) == 0) && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Status::unavailable("cannot write '" + Path + "'");
  }
  return Status::ok();
}
