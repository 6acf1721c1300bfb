/**
 * @file
 * The probe table: one row per flight-recorder kind giving its text
 * name, its timeline category and the labels of its payload words, and
 * the one formatter that spells a record from that row.
 *
 * An instrumented site makes one call, SimObject::probe() (or
 * probeSpan() for an interval), which writes one fr::Record. Every
 * view reads that record through this table:
 *
 *  - the text trace prints `<tick>: <module>: <format(record)>` when
 *    the kind's name matches the --trace / F4T_TRACE selection
 *    (sim/trace.hh);
 *  - the Chrome timeline draws an instant (or the span) named
 *    format(record) under the kind's category, when a sink is attached
 *    and the kind has a category;
 *  - tools/f4t_blackbox prints format(record) after the tick and
 *    module of each decoded record (fr::formatEntry).
 */

#ifndef F4T_SIM_PROBE_HH
#define F4T_SIM_PROBE_HH

#include <cstdint>
#include <string>

#include "sim/flight_recorder.hh"

namespace f4t::sim::probe
{

/** How one kind is named, drawn and labelled. */
struct KindInfo
{
    fr::Kind kind;
    /** lower_snake; what --trace globs match and every view prints. */
    const char *name;
    /** Timeline category; nullptr = the timeline does not draw it. */
    const char *category;
    /** Label of payload word a / b; nullptr = the word is unused. */
    const char *a;
    const char *b;
};

/** The row of a raw kind byte. Bytes past the table (a corrupt or
 *  newer dump) get an "unknown" row that prints both words. */
const KindInfo &info(std::uint8_t kind);

inline const KindInfo &
info(fr::Kind kind)
{
    return info(static_cast<std::uint8_t>(kind));
}

/** "<name> flow=<flow as %08x> <a-label>=<a> <b-label>=<b>", leaving
 *  out unused words. */
std::string format(const fr::Record &rec);

} // namespace f4t::sim::probe

#endif // F4T_SIM_PROBE_HH
