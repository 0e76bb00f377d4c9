//===- support/ArgParse.h - Flags, subcommands, auto-usage -------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared command-line front end of vega-cli, vega-serve, and the bench
/// drivers, replacing the ad-hoc `rfind("--x=", 0)` loops each tool grew
/// independently. Supports:
///
///   - value options  (`--jobs=4` or `--jobs 4`)
///   - boolean flags  (`--stats`)
///   - subcommands with positional-arity checking (`generate <target>`)
///   - pass-through of unrecognized `--flags` (for google-benchmark)
///   - generated usage text from the registered declarations
///
/// Flags may appear anywhere relative to the subcommand, matching the
/// historical vega-cli behavior. Parsing reports failures as vega::Status so
/// tools map them straight to exit codes.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SUPPORT_ARGPARSE_H
#define VEGA_SUPPORT_ARGPARSE_H

#include "support/Status.h"

#include <map>
#include <string>
#include <vector>

namespace vega {

class ArgParse {
public:
  /// \p Prog is the program name for usage text, \p Overview one line about
  /// what the tool does.
  ArgParse(std::string Prog, std::string Overview);

  /// Registers a boolean flag ("stats" → `--stats`).
  void addFlag(const std::string &Name, const std::string &Help);

  /// Registers a value option ("jobs", "N" → `--jobs=<N>`). \p Default is
  /// returned by get() when the option was not given.
  void addOption(const std::string &Name, const std::string &ValueName,
                 const std::string &Help, std::string Default = "");

  /// Registers a subcommand. \p ArgSpec is usage text for the positionals
  /// ("<target> [epochs]"); \p MinArgs / \p MaxArgs bound their count.
  void addCommand(const std::string &Name, const std::string &ArgSpec,
                  const std::string &Help, size_t MinArgs, size_t MaxArgs);

  /// When enabled, unknown `--flags` are collected into passthroughArgs()
  /// instead of failing the parse (google-benchmark tools).
  void setPassthroughUnknown(bool On) { PassthroughUnknown = On; }

  /// Parses \p argv (argv[0] is skipped). On failure returns
  /// invalid-argument with a one-line reason; the tool should print
  /// usage() and exit with the status code.
  Status parse(int Argc, char **Argv);
  Status parse(const std::vector<std::string> &Args);

  /// True when the flag/option was present on the command line.
  bool has(const std::string &Name) const;

  /// Value of option \p Name (its default when absent). When the option was
  /// given more than once, the last occurrence wins.
  const std::string &get(const std::string &Name) const;

  /// Integer value of option \p Name; \p Default when absent or non-numeric.
  int getInt(const std::string &Name, int Default) const;

  /// The selected subcommand ("" when no commands are registered or none
  /// was given).
  const std::string &command() const { return Command; }

  /// Positional arguments after the subcommand (or all positionals when no
  /// commands are registered).
  const std::vector<std::string> &positionals() const { return Positionals; }

  /// Unrecognized `--flags`, in order, when pass-through is enabled.
  const std::vector<std::string> &passthroughArgs() const {
    return Passthrough;
  }

  /// Generated usage text: overview, synopsis, flags, commands.
  std::string usage() const;

private:
  struct FlagDecl {
    std::string Help;
    std::string ValueName; ///< empty = boolean flag
    std::string Default;
  };
  struct CommandDecl {
    std::string ArgSpec, Help;
    size_t MinArgs = 0, MaxArgs = 0;
    /// Registration order, for usage rendering.
    size_t Order = 0;
  };

  std::string Prog, Overview;
  std::map<std::string, FlagDecl> Flags; ///< by name, sans "--"
  std::vector<std::string> FlagOrder;
  std::map<std::string, CommandDecl> Commands;
  std::vector<std::string> CommandOrder;
  bool PassthroughUnknown = false;

  std::string Command;
  std::vector<std::string> Positionals;
  std::vector<std::string> Passthrough;
  std::map<std::string, std::string> Values;
};

} // namespace vega

#endif // VEGA_SUPPORT_ARGPARSE_H
