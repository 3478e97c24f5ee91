//! Binary encoding and decoding of APK packages.
//!
//! Layout: `SDEX` magic, a u16 version, a u32 payload length, the payload
//! (manifest, pools, classes), and a trailing FNV-1a checksum of the
//! payload. All integers are little-endian. The decoder validates every
//! pool index and branch target, so a decoded package is structurally
//! sound by construction.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::DexError;
use crate::instr::{BinOp, Instr, InvokeKind, Reg};
use crate::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl, Manifest};
use crate::program::{Apk, Class, Dex, FieldDef, Method};
use crate::refs::{FieldId, FieldRef, MethodId, MethodRef, Pools, StrId, TypeId};

const MAGIC: &[u8; 4] = b"SDEX";
const VERSION: u16 = 1;

/// Encodes a package to bytes.
pub fn encode(apk: &Apk) -> Bytes {
    let mut payload = BytesMut::with_capacity(4096);
    encode_manifest(&mut payload, &apk.manifest);
    encode_pools(&mut payload, &apk.dex.pools);
    encode_classes(&mut payload, &apk.dex);
    let checksum = fnv1a(&payload);
    let mut out = BytesMut::with_capacity(payload.len() + 18);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(payload.len() as u32);
    out.put_slice(&payload);
    out.put_u64_le(checksum);
    out.freeze()
}

/// Decodes a package from bytes.
///
/// # Errors
///
/// Returns a [`DexError`] for truncated input, bad magic/version, checksum
/// mismatch, or any structural violation (bad opcode, out-of-range index,
/// branch past the end of a method).
pub fn decode(bytes: &[u8]) -> Result<Apk, DexError> {
    let mut span = separ_obs::span("dex.decode");
    span.set_arg("bytes", bytes.len().to_string());
    let mut buf = bytes;
    if buf.remaining() < 10 {
        return Err(DexError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DexError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(DexError::BadVersion(version));
    }
    let payload_len = buf.get_u32_le() as usize;
    if buf.remaining() < payload_len + 8 {
        return Err(DexError::Truncated);
    }
    let payload = &buf[..payload_len];
    let mut tail = &buf[payload_len..];
    let checksum = tail.get_u64_le();
    if fnv1a(payload) != checksum {
        return Err(DexError::ChecksumMismatch);
    }
    let mut p = payload;
    let manifest = decode_manifest(&mut p)?;
    let pools = decode_pools(&mut p)?;
    let classes = decode_classes(&mut p, &pools)?;
    span.set_arg("app", manifest.package.clone());
    Ok(Apk::new(manifest, Dex { pools, classes }))
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------- primitive helpers ----------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, DexError> {
    if buf.remaining() < 4 {
        return Err(DexError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DexError::Truncated);
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| DexError::BadUtf8)?;
    let out = s.to_string();
    buf.advance(len);
    Ok(out)
}

fn put_str_vec(buf: &mut BytesMut, v: &[String]) {
    buf.put_u32_le(v.len() as u32);
    for s in v {
        put_str(buf, s);
    }
}

fn get_str_vec(buf: &mut &[u8]) -> Result<Vec<String>, DexError> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_str(buf)?);
    }
    Ok(out)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, DexError> {
    if buf.remaining() < 4 {
        return Err(DexError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, DexError> {
    if buf.remaining() < 2 {
        return Err(DexError::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DexError> {
    if buf.remaining() < 1 {
        return Err(DexError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_i64(buf: &mut &[u8]) -> Result<i64, DexError> {
    if buf.remaining() < 8 {
        return Err(DexError::Truncated);
    }
    Ok(buf.get_i64_le())
}

// ---------- manifest ----------

fn encode_manifest(buf: &mut BytesMut, m: &Manifest) {
    put_str(buf, &m.package);
    put_str_vec(buf, &m.uses_permissions);
    put_str_vec(buf, &m.defines_permissions);
    buf.put_u32_le(m.components.len() as u32);
    for c in &m.components {
        put_str(buf, &c.class);
        buf.put_u8(c.kind.tag());
        buf.put_u8(match c.exported {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        match &c.permission {
            None => buf.put_u8(0),
            Some(p) => {
                buf.put_u8(1);
                put_str(buf, p);
            }
        }
        buf.put_u32_le(c.intent_filters.len() as u32);
        for filt in &c.intent_filters {
            put_str_vec(buf, &filt.actions);
            put_str_vec(buf, &filt.categories);
            put_str_vec(buf, &filt.data_types);
            put_str_vec(buf, &filt.data_schemes);
        }
    }
}

fn decode_manifest(buf: &mut &[u8]) -> Result<Manifest, DexError> {
    let package = get_str(buf)?;
    let uses_permissions = get_str_vec(buf)?;
    let defines_permissions = get_str_vec(buf)?;
    let n = get_u32(buf)? as usize;
    let mut components = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let class = get_str(buf)?;
        let kind = ComponentKind::from_tag(get_u8(buf)?)
            .ok_or(DexError::Malformed("bad component kind"))?;
        let exported = match get_u8(buf)? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(DexError::Malformed("bad exported flag")),
        };
        let permission = match get_u8(buf)? {
            0 => None,
            1 => Some(get_str(buf)?),
            _ => return Err(DexError::Malformed("bad permission flag")),
        };
        let nf = get_u32(buf)? as usize;
        let mut intent_filters = Vec::with_capacity(nf.min(256));
        for _ in 0..nf {
            intent_filters.push(IntentFilterDecl {
                actions: get_str_vec(buf)?,
                categories: get_str_vec(buf)?,
                data_types: get_str_vec(buf)?,
                data_schemes: get_str_vec(buf)?,
            });
        }
        components.push(ComponentDecl {
            class,
            kind,
            exported,
            permission,
            intent_filters,
        });
    }
    Ok(Manifest {
        package,
        uses_permissions,
        defines_permissions,
        components,
    })
}

// ---------- pools ----------

fn encode_pools(buf: &mut BytesMut, p: &Pools) {
    buf.put_u32_le(p.num_strings() as u32);
    for s in p.strings() {
        put_str(buf, s);
    }
    buf.put_u32_le(p.num_types() as u32);
    for t in p.types() {
        put_str(buf, t);
    }
    buf.put_u32_le(p.num_fields() as u32);
    for f in p.fields() {
        buf.put_u32_le(f.class.index() as u32);
        buf.put_u32_le(f.name.index() as u32);
    }
    buf.put_u32_le(p.num_methods() as u32);
    for m in p.methods() {
        buf.put_u32_le(m.class.index() as u32);
        buf.put_u32_le(m.name.index() as u32);
        buf.put_u8(m.arity);
        buf.put_u8(u8::from(m.returns_value));
    }
}

fn decode_pools(buf: &mut &[u8]) -> Result<Pools, DexError> {
    let ns = get_u32(buf)? as usize;
    let mut strings = Vec::with_capacity(ns.min(65536));
    for _ in 0..ns {
        strings.push(get_str(buf)?);
    }
    let nt = get_u32(buf)? as usize;
    let mut types = Vec::with_capacity(nt.min(65536));
    for _ in 0..nt {
        types.push(get_str(buf)?);
    }
    let nf = get_u32(buf)? as usize;
    let mut fields = Vec::with_capacity(nf.min(65536));
    for _ in 0..nf {
        fields.push(FieldRef {
            class: TypeId::from_index(get_u32(buf)? as usize),
            name: StrId::from_index(get_u32(buf)? as usize),
        });
    }
    let nm = get_u32(buf)? as usize;
    let mut methods = Vec::with_capacity(nm.min(65536));
    for _ in 0..nm {
        methods.push(MethodRef {
            class: TypeId::from_index(get_u32(buf)? as usize),
            name: StrId::from_index(get_u32(buf)? as usize),
            arity: get_u8(buf)?,
            returns_value: get_u8(buf)? != 0,
        });
    }
    Pools::from_parts(strings, types, fields, methods)
        .ok_or(DexError::Malformed("invalid pool entries"))
}

// ---------- classes & code ----------

fn encode_classes(buf: &mut BytesMut, dex: &Dex) {
    buf.put_u32_le(dex.classes.len() as u32);
    for c in &dex.classes {
        buf.put_u32_le(c.ty.index() as u32);
        buf.put_u32_le(c.super_ty.map_or(u32::MAX, |t| t.index() as u32));
        buf.put_u32_le(c.fields.len() as u32);
        for f in &c.fields {
            buf.put_u32_le(f.name.index() as u32);
            buf.put_u8(u8::from(f.is_static));
        }
        buf.put_u32_le(c.methods.len() as u32);
        for m in &c.methods {
            buf.put_u32_le(m.name.index() as u32);
            buf.put_u16_le(m.num_registers);
            buf.put_u8(m.num_params);
            buf.put_u8(u8::from(m.is_static));
            buf.put_u8(u8::from(m.returns_value));
            buf.put_u32_le(m.code.len() as u32);
            for i in &m.code {
                encode_instr(buf, i);
            }
        }
    }
}

fn decode_classes(buf: &mut &[u8], pools: &Pools) -> Result<Vec<Class>, DexError> {
    let check_str = |i: u32| -> Result<StrId, DexError> {
        if (i as usize) < pools.num_strings() {
            Ok(StrId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "string",
                index: i,
            })
        }
    };
    let check_type = |i: u32| -> Result<TypeId, DexError> {
        if (i as usize) < pools.num_types() {
            Ok(TypeId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "type",
                index: i,
            })
        }
    };
    let nc = get_u32(buf)? as usize;
    let mut classes = Vec::with_capacity(nc.min(65536));
    for _ in 0..nc {
        let ty = check_type(get_u32(buf)?)?;
        let super_raw = get_u32(buf)?;
        let super_ty = if super_raw == u32::MAX {
            None
        } else {
            Some(check_type(super_raw)?)
        };
        let nf = get_u32(buf)? as usize;
        let mut fields = Vec::with_capacity(nf.min(4096));
        for _ in 0..nf {
            fields.push(FieldDef {
                name: check_str(get_u32(buf)?)?,
                is_static: get_u8(buf)? != 0,
            });
        }
        let nm = get_u32(buf)? as usize;
        let mut methods = Vec::with_capacity(nm.min(4096));
        for _ in 0..nm {
            let name = check_str(get_u32(buf)?)?;
            let num_registers = get_u16(buf)?;
            let num_params = get_u8(buf)?;
            let is_static = get_u8(buf)? != 0;
            let returns_value = get_u8(buf)? != 0;
            let ni = get_u32(buf)? as usize;
            let mut code = Vec::with_capacity(ni.min(65536));
            for _ in 0..ni {
                code.push(decode_instr(buf, pools)?);
            }
            // Validate branch targets and register bounds.
            for i in &code {
                if let Some(t) = i.branch_target() {
                    if t as usize >= code.len() {
                        return Err(DexError::Malformed("branch target out of range"));
                    }
                }
                for r in i.uses().chain(i.def()) {
                    if r.0 >= num_registers {
                        return Err(DexError::Malformed("register out of frame"));
                    }
                }
            }
            if u16::from(num_params) > num_registers {
                return Err(DexError::Malformed("more params than registers"));
            }
            methods.push(Method {
                name,
                num_registers,
                num_params,
                is_static,
                returns_value,
                code,
            });
        }
        classes.push(Class {
            ty,
            super_ty,
            fields,
            methods,
        });
    }
    Ok(classes)
}

fn encode_instr(buf: &mut BytesMut, i: &Instr) {
    match i {
        Instr::Nop => buf.put_u8(0),
        Instr::ConstString { dst, value } => {
            buf.put_u8(1);
            buf.put_u16_le(dst.0);
            buf.put_u32_le(value.index() as u32);
        }
        Instr::ConstInt { dst, value } => {
            buf.put_u8(2);
            buf.put_u16_le(dst.0);
            buf.put_i64_le(*value);
        }
        Instr::ConstNull { dst } => {
            buf.put_u8(3);
            buf.put_u16_le(dst.0);
        }
        Instr::Move { dst, src } => {
            buf.put_u8(4);
            buf.put_u16_le(dst.0);
            buf.put_u16_le(src.0);
        }
        Instr::NewInstance { dst, class } => {
            buf.put_u8(5);
            buf.put_u16_le(dst.0);
            buf.put_u32_le(class.index() as u32);
        }
        Instr::Invoke { kind, method, args } => {
            buf.put_u8(6);
            buf.put_u8(match kind {
                InvokeKind::Virtual => 0,
                InvokeKind::Static => 1,
                InvokeKind::Direct => 2,
            });
            buf.put_u32_le(method.index() as u32);
            buf.put_u8(args.len() as u8);
            for a in args {
                buf.put_u16_le(a.0);
            }
        }
        Instr::MoveResult { dst } => {
            buf.put_u8(7);
            buf.put_u16_le(dst.0);
        }
        Instr::IGet { dst, object, field } => {
            buf.put_u8(8);
            buf.put_u16_le(dst.0);
            buf.put_u16_le(object.0);
            buf.put_u32_le(field.index() as u32);
        }
        Instr::IPut { src, object, field } => {
            buf.put_u8(9);
            buf.put_u16_le(src.0);
            buf.put_u16_le(object.0);
            buf.put_u32_le(field.index() as u32);
        }
        Instr::SGet { dst, field } => {
            buf.put_u8(10);
            buf.put_u16_le(dst.0);
            buf.put_u32_le(field.index() as u32);
        }
        Instr::SPut { src, field } => {
            buf.put_u8(11);
            buf.put_u16_le(src.0);
            buf.put_u32_le(field.index() as u32);
        }
        Instr::IfEqz { reg, target } => {
            buf.put_u8(12);
            buf.put_u16_le(reg.0);
            buf.put_u32_le(*target);
        }
        Instr::IfNez { reg, target } => {
            buf.put_u8(13);
            buf.put_u16_le(reg.0);
            buf.put_u32_le(*target);
        }
        Instr::Goto { target } => {
            buf.put_u8(14);
            buf.put_u32_le(*target);
        }
        Instr::BinOp { op, dst, lhs, rhs } => {
            buf.put_u8(15);
            buf.put_u8(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::CmpEq => 3,
            });
            buf.put_u16_le(dst.0);
            buf.put_u16_le(lhs.0);
            buf.put_u16_le(rhs.0);
        }
        Instr::ReturnVoid => buf.put_u8(16),
        Instr::Return { reg } => {
            buf.put_u8(17);
            buf.put_u16_le(reg.0);
        }
        Instr::Throw { reg } => {
            buf.put_u8(18);
            buf.put_u16_le(reg.0);
        }
    }
}

fn decode_instr(buf: &mut &[u8], pools: &Pools) -> Result<Instr, DexError> {
    let check_str = |i: u32| -> Result<StrId, DexError> {
        if (i as usize) < pools.num_strings() {
            Ok(StrId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "string",
                index: i,
            })
        }
    };
    let check_type = |i: u32| -> Result<TypeId, DexError> {
        if (i as usize) < pools.num_types() {
            Ok(TypeId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "type",
                index: i,
            })
        }
    };
    let check_field = |i: u32| -> Result<FieldId, DexError> {
        if (i as usize) < pools.num_fields() {
            Ok(FieldId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "field",
                index: i,
            })
        }
    };
    let check_method = |i: u32| -> Result<MethodId, DexError> {
        if (i as usize) < pools.num_methods() {
            Ok(MethodId::from_index(i as usize))
        } else {
            Err(DexError::BadIndex {
                pool: "method",
                index: i,
            })
        }
    };
    let op = get_u8(buf)?;
    Ok(match op {
        0 => Instr::Nop,
        1 => Instr::ConstString {
            dst: Reg(get_u16(buf)?),
            value: check_str(get_u32(buf)?)?,
        },
        2 => Instr::ConstInt {
            dst: Reg(get_u16(buf)?),
            value: get_i64(buf)?,
        },
        3 => Instr::ConstNull {
            dst: Reg(get_u16(buf)?),
        },
        4 => Instr::Move {
            dst: Reg(get_u16(buf)?),
            src: Reg(get_u16(buf)?),
        },
        5 => Instr::NewInstance {
            dst: Reg(get_u16(buf)?),
            class: check_type(get_u32(buf)?)?,
        },
        6 => {
            let kind = match get_u8(buf)? {
                0 => InvokeKind::Virtual,
                1 => InvokeKind::Static,
                2 => InvokeKind::Direct,
                _ => return Err(DexError::Malformed("bad invoke kind")),
            };
            let method = check_method(get_u32(buf)?)?;
            let argc = get_u8(buf)? as usize;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(Reg(get_u16(buf)?));
            }
            Instr::Invoke { kind, method, args }
        }
        7 => Instr::MoveResult {
            dst: Reg(get_u16(buf)?),
        },
        8 => Instr::IGet {
            dst: Reg(get_u16(buf)?),
            object: Reg(get_u16(buf)?),
            field: check_field(get_u32(buf)?)?,
        },
        9 => Instr::IPut {
            src: Reg(get_u16(buf)?),
            object: Reg(get_u16(buf)?),
            field: check_field(get_u32(buf)?)?,
        },
        10 => Instr::SGet {
            dst: Reg(get_u16(buf)?),
            field: check_field(get_u32(buf)?)?,
        },
        11 => Instr::SPut {
            src: Reg(get_u16(buf)?),
            field: check_field(get_u32(buf)?)?,
        },
        12 => Instr::IfEqz {
            reg: Reg(get_u16(buf)?),
            target: get_u32(buf)?,
        },
        13 => Instr::IfNez {
            reg: Reg(get_u16(buf)?),
            target: get_u32(buf)?,
        },
        14 => Instr::Goto {
            target: get_u32(buf)?,
        },
        15 => {
            let op = match get_u8(buf)? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::CmpEq,
                _ => return Err(DexError::Malformed("bad binop")),
            };
            Instr::BinOp {
                op,
                dst: Reg(get_u16(buf)?),
                lhs: Reg(get_u16(buf)?),
                rhs: Reg(get_u16(buf)?),
            }
        }
        16 => Instr::ReturnVoid,
        17 => Instr::Return {
            reg: Reg(get_u16(buf)?),
        },
        18 => Instr::Throw {
            reg: Reg(get_u16(buf)?),
        },
        other => return Err(DexError::BadOpcode(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ApkBuilder;
    use crate::manifest::{ComponentKind, IntentFilterDecl};

    fn sample_apk() -> Apk {
        let mut apk = ApkBuilder::new("com.example.codec");
        apk.uses_permission("android.permission.ACCESS_FINE_LOCATION");
        let mut decl = ComponentDecl::new("Lcom/example/Svc;", ComponentKind::Service);
        decl.intent_filters
            .push(IntentFilterDecl::for_actions(["showLoc"]));
        decl.permission = Some("com.example.PERM".into());
        apk.add_component(decl);
        {
            let mut class = apk.class_extends("Lcom/example/Svc;", "Landroid/app/Service;");
            class.field("cache", false);
            let mut m = class.method("onStartCommand", 2, false, false);
            let v0 = m.reg();
            let v1 = m.reg();
            let done = m.new_label();
            m.const_string(v0, "locationInfo");
            m.const_int(v1, 42);
            m.if_eqz(v1, done);
            m.new_instance(v1, "Landroid/content/Intent;");
            m.invoke_virtual("Landroid/content/Intent;", "setAction", &[v1, v0], false);
            m.iput(v0, m.this(), "Lcom/example/Svc;", "cache");
            m.bind(done);
            m.ret_void();
            m.finish();
            class.finish();
        }
        apk.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let apk = sample_apk();
        let bytes = encode(&apk);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(decoded.manifest, apk.manifest);
        assert_eq!(decoded.dex.classes, apk.dex.classes);
        assert_eq!(decoded.dex.pools.num_strings(), apk.dex.pools.num_strings());
        assert_eq!(decoded.dex.pools.num_methods(), apk.dex.pools.num_methods());
        // Re-encoding is byte-identical (canonical form).
        assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let apk = sample_apk();
        let mut bytes = encode(&apk).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DexError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let apk = sample_apk();
        let mut bytes = encode(&apk).to_vec();
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(DexError::BadVersion(_))));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let apk = sample_apk();
        let mut bytes = encode(&apk).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = decode(&bytes).expect_err("must fail");
        // Either the checksum or (if the flip hit a length) truncation.
        assert!(
            matches!(err, DexError::ChecksumMismatch | DexError::Truncated),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn truncation_is_detected() {
        let apk = sample_apk();
        let bytes = encode(&apk);
        for cut in [0, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn empty_apk_round_trips() {
        let apk = ApkBuilder::new("empty").finish();
        let bytes = encode(&apk);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(decoded.package(), "empty");
        assert!(decoded.dex.classes.is_empty());
    }
}
