/**
 * @file
 * Minimal command-line flag parsing for the example and benchmark binaries.
 *
 * Supports the forms `--flag`, `--key value`, and `--key=value`.  This is
 * deliberately tiny: the harnesses need a handful of switches (mesh class,
 * full-scale toggle, output path), not a framework.  The accessors record
 * every name they are asked for, so a front end that has read all of its
 * flags can reject the rest (rejectUnread) instead of ignoring a misspelt
 * or removed one.
 */

#ifndef QUAKE98_COMMON_ARGS_H_
#define QUAKE98_COMMON_ARGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace quake::common
{

/**
 * Parsed command line: named options plus positional arguments.  The
 * const accessors record each name they are asked for, so one Args must
 * not be read from two threads at once.
 */
class Args
{
  public:
    /**
     * Parse argv.  An argument `--k v` is treated as key/value when v does
     * not itself start with `--`; `--k=v` always binds; a bare `--k` is a
     * boolean flag with value "true".
     */
    Args(int argc, const char *const *argv);

    /** True when --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** Value of --name, or fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Value of --name parsed as long, or fallback when absent. */
    long getInt(const std::string &name, long fallback) const;

    /** Value of --name parsed as double, or fallback when absent. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Value of --name parsed as a comma-separated list of doubles, or
     * an empty list when absent.  Every item must parse the way
     * getDouble's value does: an empty item or trailing garbage throws
     * FatalError naming the flag.
     */
    std::vector<double> getDoubleList(const std::string &name) const;

    /** Positional (non-flag) arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return positionals; }

    /**
     * Throw FatalError naming the first option, in command-line order,
     * that no accessor has been asked for ("unknown flag --shards").
     * Call it once every flag the program takes has been read.
     */
    void rejectUnread() const;

  private:
    /** The value of --name, or nullptr; records name as read. */
    const std::string *find(const std::string &name) const;

    std::map<std::string, std::string> options;
    std::vector<std::string> names; ///< option names in command-line order
    std::vector<std::string> positionals;
    mutable std::set<std::string> read;
};

} // namespace quake::common

#endif // QUAKE98_COMMON_ARGS_H_
