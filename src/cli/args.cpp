#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cocoa::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add(const std::string& name, const std::string& description,
                          Target target) {
    if (name.empty() || name.rfind("--", 0) == 0) {
        throw std::invalid_argument("ArgParser: register names without leading --");
    }
    if (!specs_.emplace(name, Spec{description, target, false, 0, 0, {}}).second) {
        throw std::logic_error("ArgParser: duplicate option --" + name);
    }
    order_.push_back(name);
    return *this;
}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& description,
                               bool* target) {
    return add(name, description, target);
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 double* target) {
    return add(name, description, target);
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 int* target) {
    return add(name, description, target);
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 int* target, int min_value, int max_value) {
    if (min_value > max_value) {
        throw std::invalid_argument("ArgParser: empty range for --" + name);
    }
    add(name, description, target);
    Spec& spec = specs_.at(name);
    spec.has_range = true;
    spec.min_value = min_value;
    spec.max_value = max_value;
    return *this;
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 std::uint64_t* target) {
    return add(name, description, target);
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 std::string* target) {
    return add(name, description, target);
}
ArgParser& ArgParser::add_option(const std::string& name, const std::string& description,
                                 std::string* target,
                                 std::vector<std::string> choices) {
    if (choices.empty()) {
        throw std::invalid_argument("ArgParser: empty choice set for --" + name);
    }
    add(name, description, target);
    specs_.at(name).choices = std::move(choices);
    return *this;
}

namespace {

/// Plain Levenshtein distance, small strings only (choice names).
std::size_t edit_distance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t next_diag = row[j];
            const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
            diag = next_diag;
        }
    }
    return row[b.size()];
}

}  // namespace

bool ArgParser::assign(Target target, const std::string& value) {
    const auto from_chars_ok = [&](auto* out) {
        const auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), *out);
        return ec == std::errc{} && ptr == value.data() + value.size();
    };
    if (auto* d = std::get_if<double*>(&target)) {
        // std::stod accepts "nan" and "inf"; no option means either, and a
        // NaN slips past every ordered range check downstream.
        try {
            std::size_t used = 0;
            const double parsed = std::stod(value, &used);
            if (used != value.size() || !std::isfinite(parsed)) return false;
            **d = parsed;
            return true;
        } catch (const std::exception&) {
            return false;
        }
    }
    if (auto* i = std::get_if<int*>(&target)) return from_chars_ok(*i);
    if (auto* u = std::get_if<std::uint64_t*>(&target)) return from_chars_ok(*u);
    if (auto* s = std::get_if<std::string*>(&target)) {
        **s = value;
        return true;
    }
    return false;
}

bool ArgParser::parse(int argc, const char* const* argv, std::ostream& out,
                      std::ostream& err) {
    failed_ = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out << help();
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            err << program_ << ": unexpected positional argument '" << arg << "'\n";
            failed_ = true;
            return false;
        }
        arg.erase(0, 2);
        // --name=value form.
        std::string inline_value;
        bool has_inline = false;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg.erase(eq);
            has_inline = true;
        }
        const auto it = specs_.find(arg);
        if (it == specs_.end()) {
            err << program_ << ": unknown option --" << arg << "\n";
            failed_ = true;
            return false;
        }
        if (auto* flag = std::get_if<bool*>(&it->second.target)) {
            if (has_inline) {
                err << program_ << ": flag --" << arg << " takes no value\n";
                failed_ = true;
                return false;
            }
            **flag = true;
            continue;
        }
        std::string value;
        if (has_inline) {
            value = inline_value;
        } else {
            if (i + 1 >= argc) {
                err << program_ << ": option --" << arg << " needs a value\n";
                failed_ = true;
                return false;
            }
            value = argv[++i];
        }
        if (!assign(it->second.target, value)) {
            err << program_ << ": bad value '" << value << "' for --" << arg << "\n";
            failed_ = true;
            return false;
        }
        if (it->second.has_range) {
            const int v = *std::get<int*>(it->second.target);
            if (v < it->second.min_value || v > it->second.max_value) {
                err << program_ << ": --" << arg << " must be in ["
                    << it->second.min_value << ", " << it->second.max_value << "], got "
                    << v << "\n";
                failed_ = true;
                return false;
            }
        }
        if (const auto& choices = it->second.choices; !choices.empty()) {
            if (std::find(choices.begin(), choices.end(), value) == choices.end()) {
                err << program_ << ": bad value '" << value << "' for --" << arg
                    << " (choices:";
                for (const std::string& c : choices) err << " " << c;
                err << ")";
                // Near-miss? Offer the closest choice.
                const auto closest = std::min_element(
                    choices.begin(), choices.end(),
                    [&](const std::string& a, const std::string& b) {
                        return edit_distance(value, a) < edit_distance(value, b);
                    });
                if (edit_distance(value, *closest) <= 2) {
                    err << " — did you mean '" << *closest << "'?";
                }
                err << "\n";
                failed_ = true;
                return false;
            }
        }
    }
    return true;
}

std::string ArgParser::help() const {
    std::ostringstream ss;
    ss << program_ << " — " << description_ << "\n\noptions:\n";
    for (const std::string& name : order_) {
        const Spec& spec = specs_.at(name);
        const bool is_flag = std::holds_alternative<bool*>(spec.target);
        ss << "  --" << name << (is_flag ? "" : " <value>") << "\n      "
           << spec.description;
        if (!spec.choices.empty()) {
            ss << " (choices:";
            for (const std::string& c : spec.choices) ss << " " << c;
            ss << ")";
        }
        ss << "\n";
    }
    ss << "  --help\n      show this message\n";
    return ss.str();
}

}  // namespace cocoa::cli
