#include "common/args.h"

#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace quake::common
{

namespace
{

/** Parse all of `text` as one number; throws naming --name. */
double
parseNumber(const std::string &name, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    QUAKE_EXPECT(end != text.c_str() && *end == '\0',
                 "--" << name << " expects a number, got '" << text
                      << "'");
    return v;
}

} // namespace

Args::Args(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        std::string name = body.substr(0, eq);
        if (eq != std::string::npos) {
            options[name] = body.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options[name] = argv[++i];
        } else {
            options[name] = "true";
        }
        names.push_back(std::move(name));
    }
}

const std::string *
Args::find(const std::string &name) const
{
    read.insert(name);
    auto it = options.find(name);
    return it == options.end() ? nullptr : &it->second;
}

bool
Args::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    const std::string *value = find(name);
    return value ? *value : fallback;
}

long
Args::getInt(const std::string &name, long fallback) const
{
    const std::string *value = find(name);
    if (!value)
        return fallback;
    char *end = nullptr;
    long v = std::strtol(value->c_str(), &end, 10);
    QUAKE_EXPECT(end != value->c_str() && *end == '\0',
                 "--" << name << " expects an integer, got '" << *value
                      << "'");
    return v;
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    const std::string *value = find(name);
    return value ? parseNumber(name, *value) : fallback;
}

std::vector<double>
Args::getDoubleList(const std::string &name) const
{
    std::vector<double> values;
    const std::string *value = find(name);
    if (!value)
        return values;
    const std::string &text = *value;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = text.find(',', begin);
        values.push_back(
            parseNumber(name, text.substr(begin, comma - begin)));
        if (comma == std::string::npos)
            return values;
        begin = comma + 1;
    }
}

void
Args::rejectUnread() const
{
    for (const std::string &name : names)
        if (read.count(name) == 0)
            fatal("unknown flag --" + name);
}

} // namespace quake::common
